//! `nw` — Needleman-Wunsch sequence alignment.
//!
//! The paper's shared-memory stress case (§VII-D2): 16-thread blocks
//! allocating 2180 bytes of shared memory each — 136 bytes per thread, an
//! order of magnitude above typical kernels — which drives the AMD backend
//! to offload shared memory on small-L1 GPUs.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{App, Kernel, Workload};

const SOURCE: &str = r#"
#define BS 16

__global__ void nw_kernel(int* ref, int* input, int cols, int penalty, int d, int xoff) {
    __shared__ int input_l[17][17];
    __shared__ int ref_l[16][16];
    int bx = blockIdx.x;
    int tx = threadIdx.x;
    int b_index_x = bx + xoff;
    int b_index_y = d - b_index_x;
    int base = cols * BS * b_index_y + BS * b_index_x;
    int index = base + cols + tx + 1;
    int index_n = base + tx + 1;
    int index_w = base + cols;
    int index_nw = base;
    if (tx == 0) {
        input_l[0][0] = input[index_nw];
    }
    input_l[0][tx + 1] = input[index_n];
    input_l[tx + 1][0] = input[index_w + cols * tx];
    for (int ty = 0; ty < BS; ty++) {
        ref_l[ty][tx] = ref[index + cols * ty];
    }
    __syncthreads();
    for (int m = 0; m < BS; m++) {
        if (tx <= m) {
            int t_x = tx + 1;
            int t_y = m - tx + 1;
            int v0 = input_l[t_y - 1][t_x - 1] + ref_l[t_y - 1][t_x - 1];
            int v1 = input_l[t_y][t_x - 1] - penalty;
            int v2 = input_l[t_y - 1][t_x] - penalty;
            input_l[t_y][t_x] = max(v0, max(v1, v2));
        }
        __syncthreads();
    }
    for (int mm = 0; mm < BS - 1; mm++) {
        int m = BS - 2 - mm;
        if (tx <= m) {
            int t_x = tx + BS - m;
            int ty2 = BS - tx;
            int v0 = input_l[ty2 - 1][t_x - 1] + ref_l[ty2 - 1][t_x - 1];
            int v1 = input_l[ty2][t_x - 1] - penalty;
            int v2 = input_l[ty2 - 1][t_x] - penalty;
            input_l[ty2][t_x] = max(v0, max(v1, v2));
        }
        __syncthreads();
    }
    for (int ty = 0; ty < BS; ty++) {
        input[index + cols * ty] = input_l[ty + 1][tx + 1];
    }
}
"#;

/// The `nw` application.
#[derive(Clone, Debug)]
pub struct Nw {
    size: usize,
    penalty: i32,
}

impl Nw {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Nw {
        Nw {
            size: match workload {
                Workload::Small => 64,
                Workload::Large => 512,
            },
            penalty: 10,
        }
    }

    fn scores(&self) -> Vec<i32> {
        // Substitution scores for the (n+1)² DP grid, deterministic.
        let n = self.size;
        let cols = n + 1;
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut m = vec![0i32; cols * cols];
        for i in 1..=n {
            for j in 1..=n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                m[i * cols + j] = (state % 21) as i32 - 10;
            }
        }
        m
    }

    fn boundary(&self) -> Vec<i32> {
        let n = self.size;
        let cols = n + 1;
        let mut input = vec![0i32; cols * cols];
        for i in 0..=n {
            input[i * cols] = -(i as i32) * self.penalty;
            input[i] = -(i as i32) * self.penalty;
        }
        input
    }
}

impl App for Nw {
    fn name(&self) -> &'static str {
        "nw"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("nw_kernel", [16, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "nw_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.size;
        let cols = (n + 1) as i32;
        let nb = (n / 16) as i64; // tile blocks per side
        let rb = sim.mem.alloc_i32(&self.scores());
        let ib = sim.mem.alloc_i32(&self.boundary());
        let kernel = Kernel::new(sim, module, "nw_kernel");
        // Anti-diagonal waves over tile blocks: d = bx + by ∈ [0, 2nb-2].
        for dd in 0..(2 * nb - 1) {
            let xoff = (dd - nb + 1).max(0);
            let count = (dd.min(nb - 1) - xoff + 1).max(0);
            if count == 0 {
                continue;
            }
            kernel.launch(
                sim,
                [count, 1, 1],
                &[
                    KernelArg::Buf(rb),
                    KernelArg::Buf(ib),
                    KernelArg::I32(cols),
                    KernelArg::I32(self.penalty),
                    KernelArg::I32(dd as i32),
                    KernelArg::I32(xoff as i32),
                ],
            )?;
        }
        Ok(sim.mem.read_i32(ib).into_iter().map(|v| v as f64).collect())
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.size;
        let cols = n + 1;
        let scores = self.scores();
        let mut m = self.boundary();
        for i in 1..=n {
            for j in 1..=n {
                let diag = m[(i - 1) * cols + (j - 1)] + scores[i * cols + j];
                let left = m[i * cols + (j - 1)] - self.penalty;
                let up = m[(i - 1) * cols + j] - self.penalty;
                m[i * cols + j] = diag.max(left).max(up);
            }
        }
        m.into_iter().map(|v| v as f64).collect()
    }

    fn tolerance(&self) -> f64 {
        0.0 // integer DP must match exactly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn nw_matches_reference_exactly() {
        verify_app(&Nw::new(Workload::Small), respec_sim::targets::a4000()).unwrap();
    }

    #[test]
    fn nw_uses_136_bytes_of_shared_per_thread() {
        let app = Nw::new(Workload::Small);
        let module = crate::framework::compile_app(&app).unwrap();
        let k = module.function("nw_kernel").unwrap();
        let launch = respec_ir::kernel::analyze_function(k).unwrap().remove(0);
        let bytes = launch.shared_bytes(k);
        assert_eq!(bytes, 17 * 17 * 4 + 16 * 16 * 4, "2180 bytes per block");
        assert_eq!(
            bytes / launch.threads_per_block() as u64,
            136,
            "the paper's 136 B/thread"
        );
    }
}
