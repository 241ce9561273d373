//! `streamcluster` — online clustering: the distance/assignment kernel.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void sc_kernel(float* points, float* centers, int* assign, float* costs,
                          int n, int k, int dim) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float best = 1.0e30f;
        int bi = 0;
        for (int c = 0; c < k; c++) {
            float sum = 0.0f;
            for (int d = 0; d < dim; d++) {
                float diff = points[i * dim + d] - centers[c * dim + d];
                sum += diff * diff;
            }
            if (sum < best) {
                best = sum;
                bi = c;
            }
        }
        assign[i] = bi;
        costs[i] = best;
    }
}
"#;

/// The `streamcluster` application.
#[derive(Clone, Debug)]
pub struct StreamCluster {
    points: usize,
    centers: usize,
    dim: usize,
}

impl StreamCluster {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> StreamCluster {
        match workload {
            Workload::Small => StreamCluster {
                points: 1024,
                centers: 8,
                dim: 16,
            },
            Workload::Large => StreamCluster {
                points: 16384,
                centers: 16,
                dim: 32,
            },
        }
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        (
            random_f32(121, self.points * self.dim),
            random_f32(122, self.centers * self.dim),
        )
    }
}

impl App for StreamCluster {
    fn name(&self) -> &'static str {
        "streamcluster"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("sc_kernel", [128, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "sc_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.points;
        let (points, centers) = self.inputs();
        let pb = sim.mem.alloc_f32(&points);
        let cb = sim.mem.alloc_f32(&centers);
        let ab = sim.mem.alloc_i32(&vec![0; n]);
        let costb = sim.mem.alloc_f32(&vec![0.0; n]);
        let kernel = Kernel::new(sim, module, "sc_kernel");
        let g = ceil_div(n as i64, 128);
        kernel.launch(
            sim,
            [g, 1, 1],
            &[
                KernelArg::Buf(pb),
                KernelArg::Buf(cb),
                KernelArg::Buf(ab),
                KernelArg::Buf(costb),
                KernelArg::I32(n as i32),
                KernelArg::I32(self.centers as i32),
                KernelArg::I32(self.dim as i32),
            ],
        )?;
        let mut out: Vec<f64> = sim.mem.read_i32(ab).into_iter().map(|v| v as f64).collect();
        out.extend(sim.mem.read_f32(costb).into_iter().map(|v| v as f64));
        Ok(out)
    }

    fn reference(&self) -> Vec<f64> {
        let (points, centers) = self.inputs();
        let mut assign = Vec::with_capacity(self.points);
        let mut costs = Vec::with_capacity(self.points);
        for i in 0..self.points {
            let mut best = 1.0e30f32;
            let mut bi = 0;
            for c in 0..self.centers {
                let mut sum = 0.0f32;
                for d in 0..self.dim {
                    let diff = points[i * self.dim + d] - centers[c * self.dim + d];
                    sum += diff * diff;
                }
                if sum < best {
                    best = sum;
                    bi = c;
                }
            }
            assign.push(bi as f64);
            costs.push(best as f64);
        }
        assign.extend(costs);
        assign
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
    fn streamcluster_matches_reference() {
        verify_app(
            &StreamCluster::new(Workload::Small),
            respec_sim::targets::a4000(),
        )
        .unwrap();
    }
}
