//! `myocyte` — cardiac myocyte ODE integration.
//!
//! The characteristic trait of the original is *limited parallelism*: few
//! threads, tiny grids, long per-thread serial loops heavy in
//! transcendentals — exactly the shape that benefits from respecialization
//! when moving to bigger GPUs.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void myocyte_kernel(float* y0, float* out, int steps, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float y = y0[i];
        float v = 0.0f;
        float t = 0.0f;
        for (int s = 0; s < steps; s++) {
            float stim = expf(-t * 0.1f) * 0.3f + sinf(t * 0.05f) * 0.01f;
            float dy = -y * 0.5f + v * 0.2f + stim;
            float dv = -v * 0.3f + y * 0.1f;
            y = y + 0.01f * dy;
            v = v + 0.01f * dv;
            t = t + 0.01f;
        }
        out[i] = y + v;
    }
}
"#;

/// The `myocyte` application.
#[derive(Clone, Debug)]
pub struct Myocyte {
    instances: usize,
    steps: usize,
}

impl Myocyte {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Myocyte {
        match workload {
            Workload::Small => Myocyte {
                instances: 128,
                steps: 100,
            },
            Workload::Large => Myocyte {
                instances: 1024,
                steps: 1000,
            },
        }
    }

    fn input(&self) -> Vec<f32> {
        random_f32(51, self.instances)
    }
}

impl App for Myocyte {
    fn name(&self) -> &'static str {
        "myocyte"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("myocyte_kernel", [32, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "myocyte_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.instances;
        let yb = sim.mem.alloc_f32(&self.input());
        let ob = sim.mem.alloc_f32(&vec![0.0; n]);
        let kernel = Kernel::new(sim, module, "myocyte_kernel");
        let g = ceil_div(n as i64, 32);
        kernel.launch(
            sim,
            [g, 1, 1],
            &[
                KernelArg::Buf(yb),
                KernelArg::Buf(ob),
                KernelArg::I32(self.steps as i32),
                KernelArg::I32(n as i32),
            ],
        )?;
        Ok(sim.mem.read_f32(ob).into_iter().map(|v| v as f64).collect())
    }

    fn reference(&self) -> Vec<f64> {
        self.input()
            .into_iter()
            .map(|y0| {
                let mut y = y0;
                let mut v = 0.0f32;
                let mut t = 0.0f32;
                for _ in 0..self.steps {
                    let stim = (-t * 0.1).exp() * 0.3 + (t * 0.05).sin() * 0.01;
                    let dy = -y * 0.5 + v * 0.2 + stim;
                    let dv = -v * 0.3 + y * 0.1;
                    y += 0.01 * dy;
                    v += 0.01 * dv;
                    t += 0.01;
                }
                (y + v) as f64
            })
            .collect()
    }

    fn tolerance(&self) -> f64 {
        1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn myocyte_matches_reference() {
        verify_app(&Myocyte::new(Workload::Small), respec_sim::targets::a4000()).unwrap();
    }
}
