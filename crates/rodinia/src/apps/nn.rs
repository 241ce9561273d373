//! `nn` — nearest neighbor search over hurricane records (distance kernel +
//! host-side minimum scan). Purely memory-bound.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void nn_kernel(float* lat, float* lon, float* dist, int n, float tlat, float tlon) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float dx = lat[i] - tlat;
        float dy = lon[i] - tlon;
        dist[i] = sqrtf(dx * dx + dy * dy);
    }
}
"#;

/// The `nn` application.
#[derive(Clone, Debug)]
pub struct Nn {
    records: usize,
}

impl Nn {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Nn {
        Nn {
            records: match workload {
                Workload::Small => 8192,
                Workload::Large => 131072,
            },
        }
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let lat: Vec<f32> = random_f32(61, self.records)
            .into_iter()
            .map(|v| v * 90.0)
            .collect();
        let lon: Vec<f32> = random_f32(62, self.records)
            .into_iter()
            .map(|v| v * 180.0)
            .collect();
        (lat, lon)
    }

    const TARGET: (f32, f32) = (30.0, 90.0);
}

impl App for Nn {
    fn name(&self) -> &'static str {
        "nn"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("nn_kernel", [64, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "nn_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.records;
        let (lat, lon) = self.inputs();
        let latb = sim.mem.alloc_f32(&lat);
        let lonb = sim.mem.alloc_f32(&lon);
        let db = sim.mem.alloc_f32(&vec![0.0; n]);
        let kernel = Kernel::new(sim, module, "nn_kernel");
        let g = ceil_div(n as i64, 64);
        kernel.launch(
            sim,
            [g, 1, 1],
            &[
                KernelArg::Buf(latb),
                KernelArg::Buf(lonb),
                KernelArg::Buf(db),
                KernelArg::I32(n as i32),
                KernelArg::F32(Self::TARGET.0),
                KernelArg::F32(Self::TARGET.1),
            ],
        )?;
        let dist = sim.mem.read_f32(db);
        // Host: index of the nearest record, plus a sample of distances.
        let best = dist
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("distances are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut out = vec![best as f64];
        out.extend(dist.iter().step_by(37).map(|&v| v as f64));
        Ok(out)
    }

    fn reference(&self) -> Vec<f64> {
        let (lat, lon) = self.inputs();
        let dist: Vec<f32> = lat
            .iter()
            .zip(&lon)
            .map(|(&la, &lo)| {
                let dx = la - Self::TARGET.0;
                let dy = lo - Self::TARGET.1;
                (dx * dx + dy * dy).sqrt()
            })
            .collect();
        let best = dist
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("distances are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut out = vec![best as f64];
        out.extend(dist.iter().step_by(37).map(|&v| v as f64));
        out
    }

    fn tolerance(&self) -> f64 {
        1e-4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn nn_matches_reference() {
        verify_app(&Nn::new(Workload::Small), respec_sim::targets::rx6800()).unwrap();
    }
}
