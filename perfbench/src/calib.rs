//! Native calibration: a plain-Rust transcription of the HeCBench
//! `haccmk` short-range force loop, run single-threaded on the same
//! leaf-ordered positions and leaf pairs as the interpreted `upGrav`
//! kernel. Its ns per pair is what the host does natively, so
//! interpreted ÷ native ns per pair is the interpretation overhead,
//! independent of how fast the host is.

use std::hint::black_box;
use std::time::Instant;

/// The gravity launch's inputs and outputs, in leaf (upload) order.
pub struct GravityProbe {
    pub pos: Vec<[f32; 3]>,
    pub mass: Vec<f32>,
    /// Slot range `[start, end)` of every leaf.
    pub leaves: Vec<(usize, usize)>,
    /// Unordered leaf pairs (self pairs included), as the kernel's
    /// work lists enumerate them.
    pub pairs: Vec<(usize, usize)>,
    pub poly: [f32; 6],
    pub r_cut2: f32,
    pub soft2: f32,
    pub box_size: f32,
    /// The kernel's accelerations.
    pub kernel_acc: Vec<[f32; 3]>,
}

impl GravityProbe {
    /// Ordered particle pairs one sweep of the list visits: `n²` for a
    /// self pair, `2·nₐ·n_b` otherwise.
    pub fn ordered_pairs(&self) -> u64 {
        ordered_pairs(&self.leaves, &self.pairs)
    }
}

/// Ordered particle pairs one sweep over `pairs` visits.
pub fn ordered_pairs(leaves: &[(usize, usize)], pairs: &[(usize, usize)]) -> u64 {
    pairs
        .iter()
        .map(|&(a, b)| {
            let na = (leaves[a].1 - leaves[a].0) as u64;
            let nb = (leaves[b].1 - leaves[b].0) as u64;
            if a == b {
                na * na
            } else {
                2 * na * nb
            }
        })
        .sum()
}

/// One `haccmk` inner loop: every particle of `is` feels every particle
/// of `js` (periodic minimum image, cutoff and self-pair masks as in the
/// kernel).
pub fn interact(p: &GravityProbe, is: (usize, usize), js: (usize, usize), acc: &mut [[f32; 3]]) {
    let half = 0.5 * p.box_size;
    let wrap = |d: f32| {
        if d > half {
            d - p.box_size
        } else if d < -half {
            d + p.box_size
        } else {
            d
        }
    };
    let c = p.poly;
    for i in is.0..is.1 {
        let [xi, yi, zi] = p.pos[i];
        let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
        for j in js.0..js.1 {
            let dx = wrap(p.pos[j][0] - xi);
            let dy = wrap(p.pos[j][1] - yi);
            let dz = wrap(p.pos[j][2] - zi);
            let r2 = dx * dx + dy * dy + dz * dz;
            let m = if r2 < p.r_cut2 && r2 > 1e-12 {
                p.mass[j]
            } else {
                0.0
            };
            let s = r2 + p.soft2;
            let poly = c[0] + r2 * (c[1] + r2 * (c[2] + r2 * (c[3] + r2 * (c[4] + r2 * c[5]))));
            let f = m * (1.0 / (s * s.sqrt()) - poly);
            ax += f * dx;
            ay += f * dy;
            az += f * dz;
        }
        acc[i][0] += ax;
        acc[i][1] += ay;
        acc[i][2] += az;
    }
}

/// Accelerations from the native loop over every leaf pair.
pub fn haccmk_forces(p: &GravityProbe) -> Vec<[f32; 3]> {
    let mut acc = vec![[0.0f32; 3]; p.pos.len()];
    for &(a, b) in &p.pairs {
        interact(p, p.leaves[a], p.leaves[b], &mut acc);
        if a != b {
            interact(p, p.leaves[b], p.leaves[a], &mut acc);
        }
    }
    acc
}

/// Largest deviation of the native accelerations from the kernel's,
/// relative to the largest kernel acceleration.
pub fn max_relative_error(p: &GravityProbe, native: &[[f32; 3]]) -> f64 {
    let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    let widen = |v: [f32; 3]| [v[0] as f64, v[1] as f64, v[2] as f64];
    let scale = p
        .kernel_acc
        .iter()
        .map(|&a| norm(widen(a)))
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    p.kernel_acc
        .iter()
        .zip(native)
        .map(|(&k, &n)| {
            let (k, n) = (widen(k), widen(n));
            norm([n[0] - k[0], n[1] - k[1], n[2] - k[2]])
        })
        .fold(0.0, f64::max)
        / scale
}

/// Native ns per ordered pair of one single-threaded sweep.
pub fn sweep_ns_per_pair(p: &GravityProbe) -> f64 {
    let t0 = Instant::now();
    black_box(haccmk_forces(black_box(p)));
    t0.elapsed().as_nanos() as f64 / p.ordered_pairs().max(1) as f64
}
