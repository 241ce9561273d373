//! `particlefilter` — sequential Monte-Carlo tracking, double precision
//! (another fp64 benchmark behind the paper's AMD analysis).

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f64, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void pf_kernel(double* x, double* y, double* w, int n,
                          double ox, double oy, double seed) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        double fi = (double)i;
        double nx = sin(seed * fi + 1.0) * 0.5;
        double ny = cos(seed * fi + 2.0) * 0.5;
        double px = x[i] + 1.0 + nx;
        double py = y[i] + ny;
        double dx = px - ox;
        double dy = py - oy;
        double lik = exp(-0.5 * (dx * dx + dy * dy));
        x[i] = px;
        y[i] = py;
        w[i] = w[i] * lik;
    }
}
"#;

/// The `particlefilter` application.
#[derive(Clone, Debug)]
pub struct ParticleFilter {
    particles: usize,
    frames: usize,
}

impl ParticleFilter {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> ParticleFilter {
        match workload {
            Workload::Small => ParticleFilter {
                particles: 1024,
                frames: 3,
            },
            Workload::Large => ParticleFilter {
                particles: 16384,
                frames: 8,
            },
        }
    }

    fn inputs(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let x = random_f64(101, self.particles);
        let y = random_f64(102, self.particles);
        let w = vec![1.0 / self.particles as f64; self.particles];
        (x, y, w)
    }

    fn observations(&self) -> Vec<(f64, f64)> {
        (0..self.frames)
            .map(|f| (1.0 + f as f64, 0.5 * f as f64))
            .collect()
    }
}

impl App for ParticleFilter {
    fn name(&self) -> &'static str {
        "particlefilter"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("pf_kernel", [128, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "pf_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.particles;
        let (x, y, w) = self.inputs();
        let xb = sim.mem.alloc_f64(&x);
        let yb = sim.mem.alloc_f64(&y);
        let wb = sim.mem.alloc_f64(&w);
        let kernel = Kernel::new(sim, module, "pf_kernel");
        let g = ceil_div(n as i64, 128);
        let mut estimates = Vec::new();
        for (f, (ox, oy)) in self.observations().into_iter().enumerate() {
            kernel.launch(
                sim,
                [g, 1, 1],
                &[
                    KernelArg::Buf(xb),
                    KernelArg::Buf(yb),
                    KernelArg::Buf(wb),
                    KernelArg::I32(n as i32),
                    KernelArg::F64(ox),
                    KernelArg::F64(oy),
                    KernelArg::F64(0.1 + f as f64 * 0.01),
                ],
            )?;
            // Host: normalize weights and compute the state estimate.
            let ws = sim.mem.read_f64(wb);
            let xs = sim.mem.read_f64(xb);
            let ys = sim.mem.read_f64(yb);
            let total: f64 = ws.iter().sum();
            let ex: f64 = xs.iter().zip(&ws).map(|(a, b)| a * b).sum::<f64>() / total;
            let ey: f64 = ys.iter().zip(&ws).map(|(a, b)| a * b).sum::<f64>() / total;
            estimates.push(ex);
            estimates.push(ey);
        }
        Ok(estimates)
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.particles;
        let (mut x, mut y, mut w) = self.inputs();
        let mut estimates = Vec::new();
        for (f, (ox, oy)) in self.observations().into_iter().enumerate() {
            let seed = 0.1 + f as f64 * 0.01;
            for i in 0..n {
                let fi = i as f64;
                let nx = (seed * fi + 1.0).sin() * 0.5;
                let ny = (seed * fi + 2.0).cos() * 0.5;
                x[i] += 1.0 + nx;
                y[i] += ny;
                let dx = x[i] - ox;
                let dy = y[i] - oy;
                w[i] *= (-0.5 * (dx * dx + dy * dy)).exp();
            }
            let total: f64 = w.iter().sum();
            estimates.push(x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() / total);
            estimates.push(y.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() / total);
        }
        estimates
    }

    fn tolerance(&self) -> f64 {
        1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn particlefilter_matches_reference() {
        verify_app(
            &ParticleFilter::new(Workload::Small),
            respec_sim::targets::rx6800(),
        )
        .unwrap();
    }
}
