//! `bfs` — breadth-first search over an irregular graph (frontier-based,
//! two kernels per level, host-controlled termination).

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{ceil_div, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void bfs_kernel1(int* row_start, int* col_idx, int* mask, int* visited,
                            int* updating, int* cost, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        if (mask[tid] == 1) {
            mask[tid] = 0;
            int first = row_start[tid];
            int last = row_start[tid + 1];
            for (int i = first; i < last; i++) {
                int id = col_idx[i];
                if (visited[id] == 0) {
                    cost[id] = cost[tid] + 1;
                    updating[id] = 1;
                }
            }
        }
    }
}

__global__ void bfs_kernel2(int* mask, int* visited, int* updating, int* stop, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        if (updating[tid] == 1) {
            mask[tid] = 1;
            visited[tid] = 1;
            updating[tid] = 0;
            stop[0] = 1;
        }
    }
}
"#;

/// The `bfs` application.
#[derive(Clone, Debug)]
pub struct Bfs {
    nodes: usize,
    degree: usize,
}

impl Bfs {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Bfs {
        Bfs {
            nodes: match workload {
                Workload::Small => 2048,
                Workload::Large => 65536,
            },
            degree: 4,
        }
    }

    /// Deterministic random graph in CSR form.
    fn graph(&self) -> (Vec<i32>, Vec<i32>) {
        let n = self.nodes;
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row_start = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_start.push(0i32);
        for v in 0..n {
            let deg = 1 + (rand() as usize % self.degree);
            for _ in 0..deg {
                // Mix of local and far edges keeps the frontier irregular.
                let target = if rand() % 2 == 0 {
                    (v + 1 + rand() as usize % 16) % n
                } else {
                    rand() as usize % n
                };
                col_idx.push(target as i32);
            }
            row_start.push(col_idx.len() as i32);
        }
        (row_start, col_idx)
    }
}

impl App for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![
            KernelSpec::new("bfs_kernel1", [128, 1, 1]),
            KernelSpec::new("bfs_kernel2", [128, 1, 1]),
        ]
    }

    fn main_kernel(&self) -> &'static str {
        "bfs_kernel1"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.nodes;
        let (row_start, col_idx) = self.graph();
        let rb = sim.mem.alloc_i32(&row_start);
        let cb = sim.mem.alloc_i32(&col_idx);
        let mut mask = vec![0i32; n];
        let mut visited = vec![0i32; n];
        let mut cost = vec![-1i32; n];
        mask[0] = 1;
        visited[0] = 1;
        cost[0] = 0;
        let maskb = sim.mem.alloc_i32(&mask);
        let visb = sim.mem.alloc_i32(&visited);
        let updb = sim.mem.alloc_i32(&vec![0; n]);
        let costb = sim.mem.alloc_i32(&cost);
        let stopb = sim.mem.alloc_i32(&[0]);
        let k1 = Kernel::new(sim, module, "bfs_kernel1");
        let k2 = Kernel::new(sim, module, "bfs_kernel2");
        let g = ceil_div(n as i64, 128);
        loop {
            sim.mem.write_i32(stopb, &[0]);
            k1.launch(
                sim,
                [g, 1, 1],
                &[
                    KernelArg::Buf(rb),
                    KernelArg::Buf(cb),
                    KernelArg::Buf(maskb),
                    KernelArg::Buf(visb),
                    KernelArg::Buf(updb),
                    KernelArg::Buf(costb),
                    KernelArg::I32(n as i32),
                ],
            )?;
            k2.launch(
                sim,
                [g, 1, 1],
                &[
                    KernelArg::Buf(maskb),
                    KernelArg::Buf(visb),
                    KernelArg::Buf(updb),
                    KernelArg::Buf(stopb),
                    KernelArg::I32(n as i32),
                ],
            )?;
            if sim.mem.read_i32(stopb)[0] == 0 {
                break;
            }
        }
        Ok(sim
            .mem
            .read_i32(costb)
            .into_iter()
            .map(|v| v as f64)
            .collect())
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.nodes;
        let (row_start, col_idx) = self.graph();
        let mut cost = vec![-1i32; n];
        cost[0] = 0;
        let mut frontier = vec![0usize];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                let (lo, hi) = (row_start[v] as usize, row_start[v + 1] as usize);
                for &c in &col_idx[lo..hi] {
                    let t = c as usize;
                    if cost[t] == -1 {
                        cost[t] = cost[v] + 1;
                        next.push(t);
                    }
                }
            }
            frontier = next;
        }
        cost.into_iter().map(|v| v as f64).collect()
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
    fn bfs_matches_reference_exactly() {
        verify_app(&Bfs::new(Workload::Small), respec_sim::targets::a100()).unwrap();
    }
}
