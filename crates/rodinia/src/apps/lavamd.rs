//! `lavaMD` — particle interactions within box neighborhoods, double
//! precision, shared-memory staging of neighbor particles.
//!
//! The benchmark behind the paper's loop-invariant code motion finding
//! (§VII-C): the legacy kernel re-reads the home particle's position from
//! shared memory on every iteration of the innermost compute loop;
//! Polygeist's LICM hoists those loads out, dramatically improving the
//! memory behaviour vs. clang (which keeps them in the loop).

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{random_f64, App, Kernel, Workload};

const SOURCE: &str = r#"
#define PAR 64

__global__ void lavamd_kernel(double* rvx, double* rvy, double* rvz, double* qv,
                              double* fv, int* nei, int nnei, double a2) {
    __shared__ double rax[PAR];
    __shared__ double ray[PAR];
    __shared__ double raz[PAR];
    __shared__ double rbx[PAR];
    __shared__ double rby[PAR];
    __shared__ double rbz[PAR];
    __shared__ double qb[PAR];
    int bx = blockIdx.x;
    int tx = threadIdx.x;
    int home = bx * PAR + tx;
    rax[tx] = rvx[home];
    ray[tx] = rvy[home];
    raz[tx] = rvz[home];
    double fx = 0.0;
    double fy = 0.0;
    double fz = 0.0;
    double fw = 0.0;
    __syncthreads();
    for (int k = 0; k < nnei; k++) {
        int nb = nei[bx * nnei + k];
        int other = nb * PAR + tx;
        rbx[tx] = rvx[other];
        rby[tx] = rvy[other];
        rbz[tx] = rvz[other];
        qb[tx] = qv[other];
        __syncthreads();
        for (int j = 0; j < PAR; j++) {
            double dx = rax[tx] - rbx[j];
            double dy = ray[tx] - rby[j];
            double dz = raz[tx] - rbz[j];
            double r2 = dx * dx + dy * dy + dz * dz;
            double u2 = a2 * r2;
            double vij = exp(-u2);
            double fs = 2.0 * vij;
            fx = fx + fs * dx;
            fy = fy + fs * dy;
            fz = fz + fs * dz;
            fw = fw + qb[j] * vij;
        }
        __syncthreads();
    }
    fv[home * 4 + 0] = fx;
    fv[home * 4 + 1] = fy;
    fv[home * 4 + 2] = fz;
    fv[home * 4 + 3] = fw;
}
"#;

/// The `lavaMD` application.
#[derive(Clone, Debug)]
pub struct LavaMd {
    boxes: usize,
    nnei: usize,
}

const PAR: usize = 64;

/// Input arrays: positions (rx, ry, rz), charges, neighbor-box lists.
type LavaMdInputs = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<i32>);

impl LavaMd {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> LavaMd {
        match workload {
            Workload::Small => LavaMd { boxes: 16, nnei: 4 },
            Workload::Large => LavaMd { boxes: 64, nnei: 8 },
        }
    }

    fn inputs(&self) -> LavaMdInputs {
        let n = self.boxes * PAR;
        let rx = random_f64(91, n);
        let ry = random_f64(92, n);
        let rz = random_f64(93, n);
        let qv = random_f64(94, n);
        // Neighbor lists: deterministic pseudo-random boxes (incl. self).
        let mut state = 0xfeed_face_dead_beefu64;
        let mut nei = Vec::with_capacity(self.boxes * self.nnei);
        for b in 0..self.boxes {
            nei.push(b as i32); // self-interaction first
            for _ in 1..self.nnei {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                nei.push((state % self.boxes as u64) as i32);
            }
        }
        (rx, ry, rz, qv, nei)
    }

    const A2: f64 = 0.5;
}

impl App for LavaMd {
    fn name(&self) -> &'static str {
        "lavaMD"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("lavamd_kernel", [64, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "lavamd_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.boxes * PAR;
        let (rx, ry, rz, qv, nei) = self.inputs();
        let rxb = sim.mem.alloc_f64(&rx);
        let ryb = sim.mem.alloc_f64(&ry);
        let rzb = sim.mem.alloc_f64(&rz);
        let qb = sim.mem.alloc_f64(&qv);
        let fvb = sim.mem.alloc_f64(&vec![0.0; n * 4]);
        let nb = sim.mem.alloc_i32(&nei);
        let kernel = Kernel::new(sim, module, "lavamd_kernel");
        kernel.launch(
            sim,
            [self.boxes as i64, 1, 1],
            &[
                KernelArg::Buf(rxb),
                KernelArg::Buf(ryb),
                KernelArg::Buf(rzb),
                KernelArg::Buf(qb),
                KernelArg::Buf(fvb),
                KernelArg::Buf(nb),
                KernelArg::I32(self.nnei as i32),
                KernelArg::F64(Self::A2),
            ],
        )?;
        Ok(sim.mem.read_f64(fvb))
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.boxes * PAR;
        let (rx, ry, rz, qv, nei) = self.inputs();
        let mut fv = vec![0.0f64; n * 4];
        for b in 0..self.boxes {
            for t in 0..PAR {
                let home = b * PAR + t;
                let (px, py, pz) = (rx[home], ry[home], rz[home]);
                let (mut fx, mut fy, mut fz, mut fw) = (0.0, 0.0, 0.0, 0.0);
                for k in 0..self.nnei {
                    let nbx = nei[b * self.nnei + k] as usize;
                    for j in 0..PAR {
                        let o = nbx * PAR + j;
                        let dx = px - rx[o];
                        let dy = py - ry[o];
                        let dz = pz - rz[o];
                        let r2 = dx * dx + dy * dy + dz * dz;
                        let vij = (-(Self::A2 * r2)).exp();
                        let fs = 2.0 * vij;
                        fx += fs * dx;
                        fy += fs * dy;
                        fz += fs * dz;
                        fw += qv[o] * vij;
                    }
                }
                fv[home * 4] = fx;
                fv[home * 4 + 1] = fy;
                fv[home * 4 + 2] = fz;
                fv[home * 4 + 3] = fw;
            }
        }
        fv
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
    fn lavamd_matches_reference() {
        verify_app(&LavaMd::new(Workload::Small), respec_sim::targets::a100()).unwrap();
    }
}
