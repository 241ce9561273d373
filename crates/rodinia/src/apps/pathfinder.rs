//! `pathfinder` — dynamic programming over a grid (shortest path row by
//! row), with shared-memory halos.

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, App, Kernel, Workload};

const SOURCE: &str = r#"
#define BS 256

__global__ void dynproc_kernel(int* wall, int* src, int* dst, int cols, int t) {
    __shared__ int prev[258];
    int bx = blockIdx.x;
    int tx = threadIdx.x;
    int x = bx * BS + tx;
    prev[tx + 1] = src[min(x, cols - 1)];
    if (tx == 0) {
        prev[0] = src[max(x - 1, 0)];
    }
    if (tx == BS - 1) {
        prev[BS + 1] = src[min(x + 1, cols - 1)];
    }
    __syncthreads();
    if (x < cols) {
        int shortest = min(prev[tx], min(prev[tx + 1], prev[tx + 2]));
        dst[x] = shortest + wall[(t + 1) * cols + x];
    }
}
"#;

/// The `pathfinder` application.
#[derive(Clone, Debug)]
pub struct Pathfinder {
    cols: usize,
    rows: usize,
}

impl Pathfinder {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Pathfinder {
        match workload {
            Workload::Small => Pathfinder {
                cols: 1024,
                rows: 8,
            },
            Workload::Large => Pathfinder {
                cols: 8192,
                rows: 24,
            },
        }
    }

    fn wall(&self) -> Vec<i32> {
        let mut state = 0xdead_beef_cafe_f00du64;
        (0..self.cols * self.rows)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 10) as i32
            })
            .collect()
    }
}

impl App for Pathfinder {
    fn name(&self) -> &'static str {
        "pathfinder"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("dynproc_kernel", [256, 1, 1])]
    }

    fn main_kernel(&self) -> &'static str {
        "dynproc_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let wall = self.wall();
        let wb = sim.mem.alloc_i32(&wall);
        let mut src = sim.mem.alloc_i32(&wall[..self.cols]);
        let mut dst = sim.mem.alloc_i32(&vec![0; self.cols]);
        let kernel = Kernel::new(sim, module, "dynproc_kernel");
        let g = ceil_div(self.cols as i64, 256);
        for t in 0..self.rows - 1 {
            kernel.launch(
                sim,
                [g, 1, 1],
                &[
                    KernelArg::Buf(wb),
                    KernelArg::Buf(src),
                    KernelArg::Buf(dst),
                    KernelArg::I32(self.cols as i32),
                    KernelArg::I32(t as i32),
                ],
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(sim
            .mem
            .read_i32(src)
            .into_iter()
            .map(|v| v as f64)
            .collect())
    }

    fn reference(&self) -> Vec<f64> {
        let wall = self.wall();
        let mut src: Vec<i32> = wall[..self.cols].to_vec();
        let mut dst = vec![0i32; self.cols];
        for t in 0..self.rows - 1 {
            for x in 0..self.cols {
                let left = src[x.saturating_sub(1)];
                let up = src[x];
                let right = src[(x + 1).min(self.cols - 1)];
                dst[x] = left.min(up).min(right) + wall[(t + 1) * self.cols + x];
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src.into_iter().map(|v| v as f64).collect()
    }

    fn tolerance(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::verify_app;

    #[test]
    fn pathfinder_matches_reference_exactly() {
        verify_app(
            &Pathfinder::new(Workload::Small),
            respec_sim::targets::a100(),
        )
        .unwrap();
    }
}
