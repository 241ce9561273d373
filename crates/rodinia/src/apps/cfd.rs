//! `cfd` — unstructured-grid Euler solver (flux computation over cell
//! neighborhoods, the euler3d kernel shape).

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
#define NNB 4

__global__ void cfd_flux(float* density, float* momx, float* momy, float* energy,
                         int* neigh, float* out_d, float* out_mx, float* out_my, float* out_e,
                         int n, float factor) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float d = density[i];
        float mx = momx[i];
        float my = momy[i];
        float en = energy[i];
        float p = 0.4f * (en - 0.5f * (mx * mx + my * my) / d);
        float fd = 0.0f;
        float fmx = 0.0f;
        float fmy = 0.0f;
        float fe = 0.0f;
        for (int k = 0; k < NNB; k++) {
            int nb = neigh[i * NNB + k];
            if (nb >= 0) {
                float dn = density[nb];
                float mxn = momx[nb];
                float myn = momy[nb];
                float enn = energy[nb];
                float pn = 0.4f * (enn - 0.5f * (mxn * mxn + myn * myn) / dn);
                float cs = sqrtf(1.4f * (p + pn) / (d + dn));
                fd += cs * (dn - d);
                fmx += cs * (mxn - mx) + 0.5f * (pn - p);
                fmy += cs * (myn - my) + 0.5f * (pn - p);
                fe += cs * (enn - en);
            }
        }
        out_d[i] = d + factor * fd;
        out_mx[i] = mx + factor * fmx;
        out_my[i] = my + factor * fmy;
        out_e[i] = en + factor * fe;
    }
}
"#;

const NNB: usize = 4;

/// The `cfd` application.
#[derive(Clone, Debug)]
pub struct Cfd {
    cells: usize,
    iters: usize,
}

impl Cfd {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Cfd {
        match workload {
            Workload::Small => Cfd {
                cells: 2048,
                iters: 2,
            },
            Workload::Large => Cfd {
                cells: 32768,
                iters: 4,
            },
        }
    }

    #[allow(clippy::type_complexity)]
    fn inputs(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<i32>) {
        let n = self.cells;
        let density: Vec<f32> = random_f32(111, n).into_iter().map(|v| 1.0 + v).collect();
        let momx: Vec<f32> = random_f32(112, n).into_iter().map(|v| v - 0.5).collect();
        let momy: Vec<f32> = random_f32(113, n).into_iter().map(|v| v - 0.5).collect();
        let energy: Vec<f32> = random_f32(114, n).into_iter().map(|v| 2.0 + v).collect();
        // Grid-like neighborhood with some boundary cells (-1).
        let side = (n as f64).sqrt() as usize;
        let mut neigh = Vec::with_capacity(n * NNB);
        for i in 0..n {
            let (r, c) = (i / side, i % side);
            neigh.push(if c > 0 { (i - 1) as i32 } else { -1 });
            neigh.push(if c + 1 < side && i + 1 < n {
                (i + 1) as i32
            } else {
                -1
            });
            neigh.push(if r > 0 { (i - side) as i32 } else { -1 });
            neigh.push(if i + side < n { (i + side) as i32 } else { -1 });
        }
        (density, momx, momy, energy, neigh)
    }

    const FACTOR: f32 = 0.001;
}

impl App for Cfd {
    fn name(&self) -> &'static str {
        "cfd"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("cfd_flux", [128, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "cfd_flux"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.cells;
        let (density, momx, momy, energy, neigh) = self.inputs();
        let mut src = [
            sim.mem.alloc_f32(&density),
            sim.mem.alloc_f32(&momx),
            sim.mem.alloc_f32(&momy),
            sim.mem.alloc_f32(&energy),
        ];
        let mut dst = [
            sim.mem.alloc_f32(&vec![0.0; n]),
            sim.mem.alloc_f32(&vec![0.0; n]),
            sim.mem.alloc_f32(&vec![0.0; n]),
            sim.mem.alloc_f32(&vec![0.0; n]),
        ];
        let nb = sim.mem.alloc_i32(&neigh);
        let kernel = Kernel::new(sim, module, "cfd_flux");
        let g = ceil_div(n as i64, 128);
        for _ in 0..self.iters {
            kernel.launch(
                sim,
                [g, 1, 1],
                &[
                    KernelArg::Buf(src[0]),
                    KernelArg::Buf(src[1]),
                    KernelArg::Buf(src[2]),
                    KernelArg::Buf(src[3]),
                    KernelArg::Buf(nb),
                    KernelArg::Buf(dst[0]),
                    KernelArg::Buf(dst[1]),
                    KernelArg::Buf(dst[2]),
                    KernelArg::Buf(dst[3]),
                    KernelArg::I32(n as i32),
                    KernelArg::F32(Self::FACTOR),
                ],
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        let mut out = sim.mem.read_f32(src[0]);
        out.extend(sim.mem.read_f32(src[3]));
        Ok(out.into_iter().map(|v| v as f64).collect())
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.cells;
        let (density, momx, momy, energy, neigh) = self.inputs();
        let mut src = [density, momx, momy, energy];
        for _ in 0..self.iters {
            let mut dst = [
                vec![0.0f32; n],
                vec![0.0f32; n],
                vec![0.0f32; n],
                vec![0.0f32; n],
            ];
            for i in 0..n {
                let d = src[0][i];
                let mx = src[1][i];
                let my = src[2][i];
                let en = src[3][i];
                let p = 0.4 * (en - 0.5 * (mx * mx + my * my) / d);
                let (mut fd, mut fmx, mut fmy, mut fe) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for k in 0..NNB {
                    let nbi = neigh[i * NNB + k];
                    if nbi >= 0 {
                        let o = nbi as usize;
                        let dn = src[0][o];
                        let mxn = src[1][o];
                        let myn = src[2][o];
                        let enn = src[3][o];
                        let pn = 0.4 * (enn - 0.5 * (mxn * mxn + myn * myn) / dn);
                        let cs = (1.4 * (p + pn) / (d + dn)).sqrt();
                        fd += cs * (dn - d);
                        fmx += cs * (mxn - mx) + 0.5 * (pn - p);
                        fmy += cs * (myn - my) + 0.5 * (pn - p);
                        fe += cs * (enn - en);
                    }
                }
                dst[0][i] = d + Self::FACTOR * fd;
                dst[1][i] = mx + Self::FACTOR * fmx;
                dst[2][i] = my + Self::FACTOR * fmy;
                dst[3][i] = en + Self::FACTOR * fe;
            }
            src = dst;
        }
        let mut out: Vec<f64> = src[0].iter().map(|&v| v as f64).collect();
        out.extend(src[3].iter().map(|&v| v as f64));
        out
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
    fn cfd_matches_reference() {
        verify_app(&Cfd::new(Workload::Small), respec_sim::targets::a100()).unwrap();
    }
}
