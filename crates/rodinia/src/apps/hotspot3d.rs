//! `hotspot3D` — 3-D transient thermal simulation in double precision (one
//! of the three fp64 benchmarks behind the paper's AMD fp64 observations).

use respec_frontend::KernelSpec;
use respec_ir::Module;
use respec_sim::{GpuSim, KernelArg, SimError};

use crate::framework::{random_f64, App, Kernel, Workload};

const SOURCE: &str = r#"
__global__ void hotspot3d_kernel(double* power, double* src, double* dst,
                                 int nx, int ny, int nz,
                                 double cc, double cn, double cv, double amb) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int z = blockIdx.z * blockDim.z + threadIdx.z;
    int i = z * nx * ny + y * nx + x;
    double c = src[i];
    double w = (x == 0) ? c : src[i - 1];
    double e = (x == nx - 1) ? c : src[i + 1];
    double n = (y == 0) ? c : src[i - nx];
    double s = (y == ny - 1) ? c : src[i + nx];
    double b = (z == 0) ? c : src[i - nx * ny];
    double t = (z == nz - 1) ? c : src[i + nx * ny];
    dst[i] = cc * c + cn * (w + e + n + s) + cv * (b + t) + power[i] + amb;
}
"#;

/// The `hotspot3D` application.
#[derive(Clone, Debug)]
pub struct Hotspot3D {
    nx: usize,
    ny: usize,
    nz: usize,
    steps: usize,
}

impl Hotspot3D {
    /// Creates the app at the given workload.
    pub fn new(workload: Workload) -> Hotspot3D {
        match workload {
            Workload::Small => Hotspot3D {
                nx: 32,
                ny: 32,
                nz: 4,
                steps: 3,
            },
            Workload::Large => Hotspot3D {
                nx: 128,
                ny: 128,
                nz: 8,
                steps: 8,
            },
        }
    }

    fn coeffs(&self) -> (f64, f64, f64, f64) {
        // Stable explicit-update coefficients: cc + 4 cn + 2 cv = 1.
        let cn = 0.06;
        let cv = 0.04;
        let cc = 1.0 - 4.0 * cn - 2.0 * cv;
        (cc, cn, cv, 0.001)
    }

    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.nx * self.ny * self.nz;
        let temp: Vec<f64> = random_f64(81, n)
            .into_iter()
            .map(|v| 320.0 + v * 10.0)
            .collect();
        let power: Vec<f64> = random_f64(82, n).into_iter().map(|v| v * 0.01).collect();
        (temp, power)
    }
}

impl App for Hotspot3D {
    fn name(&self) -> &'static str {
        "hotspot3D"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn specs(&self) -> Vec<KernelSpec> {
        vec![KernelSpec::new("hotspot3d_kernel", [16, 8, 2])]
    }

    fn main_kernel(&self) -> &'static str {
        "hotspot3d_kernel"
    }

    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let n = nx * ny * nz;
        let (temp, power) = self.inputs();
        let (cc, cn, cv, amb) = self.coeffs();
        let pb = sim.mem.alloc_f64(&power);
        let mut src = sim.mem.alloc_f64(&temp);
        let mut dst = sim.mem.alloc_f64(&vec![0.0; n]);
        let kernel = Kernel::new(sim, module, "hotspot3d_kernel");
        let grid = [(nx / 16) as i64, (ny / 8) as i64, (nz / 2) as i64];
        for _ in 0..self.steps {
            kernel.launch(
                sim,
                grid,
                &[
                    KernelArg::Buf(pb),
                    KernelArg::Buf(src),
                    KernelArg::Buf(dst),
                    KernelArg::I32(nx as i32),
                    KernelArg::I32(ny as i32),
                    KernelArg::I32(nz as i32),
                    KernelArg::F64(cc),
                    KernelArg::F64(cn),
                    KernelArg::F64(cv),
                    KernelArg::F64(amb),
                ],
            )?;
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(sim.mem.read_f64(src))
    }

    fn reference(&self) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let n = nx * ny * nz;
        let (temp, power) = self.inputs();
        let (cc, cn, cv, amb) = self.coeffs();
        let mut src = temp;
        let mut dst = vec![0.0f64; n];
        for _ in 0..self.steps {
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let i = z * nx * ny + y * nx + x;
                        let c = src[i];
                        let w = if x == 0 { c } else { src[i - 1] };
                        let e = if x == nx - 1 { c } else { src[i + 1] };
                        let no = if y == 0 { c } else { src[i - nx] };
                        let s = if y == ny - 1 { c } else { src[i + nx] };
                        let b = if z == 0 { c } else { src[i - nx * ny] };
                        let t = if z == nz - 1 { c } else { src[i + nx * ny] };
                        dst[i] = cc * c + cn * (w + e + no + s) + cv * (b + t) + power[i] + amb;
                    }
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src
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
    fn hotspot3d_matches_reference() {
        verify_app(
            &Hotspot3D::new(Workload::Small),
            respec_sim::targets::mi210(),
        )
        .unwrap();
    }
}
