//! `backprop` — back-propagation neural network training (forward layer
//! with shared-memory tree reduction, plus weight adjustment).

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{random_f32, App, Kernel, Workload};

const SOURCE: &str = r#"
#define W 16

__global__ void layerforward(float* input, float* weights, float* partial, int hid) {
    __shared__ float input_node[W];
    __shared__ float wt[W][W];
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int index_in = W * by + ty + 1;
    int index = (hid + 1) * index_in + tx + 1;
    if (tx == 0) {
        input_node[ty] = input[index_in];
    }
    __syncthreads();
    wt[ty][tx] = weights[index] * input_node[ty];
    __syncthreads();
    for (int i = 1; i <= 4; i++) {
        int power_two = 1 << i;
        if (ty % power_two == 0) {
            wt[ty][tx] = wt[ty][tx] + wt[ty + power_two / 2][tx];
        }
        __syncthreads();
    }
    if (ty == 0) {
        partial[by * hid + tx] = wt[0][tx];
    }
}

__global__ void adjust_weights(float* delta, float* ly, float* w, float* oldw, int hid) {
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int index_y = W * by + ty + 1;
    int index_x = tx + 1;
    int index = (hid + 1) * index_y + index_x;
    float dw = 0.3f * delta[index_x] * ly[index_y] + 0.3f * oldw[index];
    w[index] = w[index] + dw;
    oldw[index] = dw;
}
"#;

/// The `backprop` application.
#[derive(Clone, Debug)]
pub struct Backprop {
    input_size: usize,
    hidden: usize,
}

impl Backprop {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Backprop {
        Backprop {
            input_size: match workload {
                Workload::Small => 512,
                Workload::Large => 8192,
            },
            hidden: 16,
        }
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = self.input_size;
        let h = self.hidden;
        // Layouts follow Rodinia: units are 1-indexed with a bias slot 0.
        let input: Vec<f32> = random_f32(41, n + 1);
        let weights = random_f32(42, (n + 1) * (h + 1));
        let delta: Vec<f32> = random_f32(43, h + 1).into_iter().map(|v| v - 0.5).collect();
        let oldw = vec![0.0f32; (n + 1) * (h + 1)];
        (input, weights, delta, oldw)
    }
}

impl App for Backprop {
    fn name(&self) -> &'static str {
        "backprop"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![
            KernelSpec::new("layerforward", [16, 16, 1]),
            KernelSpec::new("adjust_weights", [16, 16, 1]),
        ]
    }

    fn main_kernel(&self) -> &'static str {
        "layerforward"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let n = self.input_size;
        let h = self.hidden;
        let blocks = (n / 16) as i64;
        let (input, weights, delta, oldw) = self.inputs();
        let ib = sim.mem.alloc_f32(&input);
        let wb = sim.mem.alloc_f32(&weights);
        let pb = sim.mem.alloc_f32(&vec![0.0; blocks as usize * h]);
        let db = sim.mem.alloc_f32(&delta);
        let ob = sim.mem.alloc_f32(&oldw);
        let forward = Kernel::new(sim, module, "layerforward");
        let adjust = Kernel::new(sim, module, "adjust_weights");
        forward.launch(
            sim,
            [1, blocks, 1],
            &[
                KernelArg::Buf(ib),
                KernelArg::Buf(wb),
                KernelArg::Buf(pb),
                KernelArg::I32(h as i32),
            ],
        )?;
        // Host: sum the per-block partials and squash.
        let partial = sim.mem.read_f32(pb);
        let mut hidden = vec![0.0f32; h + 1];
        for (j, hval) in hidden.iter_mut().enumerate().skip(1).take(h) {
            let mut sum = 0.0f32;
            for b in 0..blocks as usize {
                sum += partial[b * h + (j - 1)];
            }
            *hval = 1.0 / (1.0 + (-sum).exp());
        }
        adjust.launch(
            sim,
            [1, blocks, 1],
            &[
                KernelArg::Buf(db),
                KernelArg::Buf(ib),
                KernelArg::Buf(wb),
                KernelArg::Buf(ob),
                KernelArg::I32(h as i32),
            ],
        )?;
        let w_out = sim.mem.read_f32(wb);
        let mut out: Vec<f64> = hidden.iter().map(|&v| v as f64).collect();
        out.extend(w_out.iter().step_by(97).map(|&v| v as f64));
        Ok(out)
    }

    fn reference(&self) -> Vec<f64> {
        let n = self.input_size;
        let h = self.hidden;
        let (input, weights, delta, _) = self.inputs();
        let mut hidden = vec![0.0f32; h + 1];
        for j in 1..=h {
            let mut sum = 0.0f32;
            // Blocked summation in the kernel: per 16-row block, then summed
            // on the host in block order — reproduce that order for f32
            // faithfulness.
            for b in 0..n / 16 {
                let mut bsum = 0.0f32;
                // Tree reduction order within the block.
                let mut vals: Vec<f32> = (0..16)
                    .map(|ty| {
                        let row = 16 * b + ty + 1;
                        weights[(h + 1) * row + j] * input[row]
                    })
                    .collect();
                let mut stride = 1;
                while stride < 16 {
                    for i in (0..16).step_by(2 * stride) {
                        vals[i] += vals[i + stride];
                    }
                    stride *= 2;
                }
                bsum += vals[0];
                sum += bsum;
            }
            hidden[j] = 1.0 / (1.0 + (-sum).exp());
        }
        let mut w = weights.clone();
        for (row, &inp) in input.iter().enumerate().take(n + 1).skip(1) {
            for (col, &dc) in delta.iter().enumerate().take(h + 1).skip(1) {
                let idx = (h + 1) * row + col;
                let dw = 0.3 * dc * inp;
                w[idx] += dw;
            }
        }
        let mut out: Vec<f64> = hidden.iter().map(|&v| v as f64).collect();
        out.extend(w.iter().step_by(97).map(|&v| v as f64));
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
    fn backprop_matches_reference() {
        verify_app(
            &Backprop::new(Workload::Small),
            respec_sim::targets::a4000(),
        )
        .unwrap();
    }
}
