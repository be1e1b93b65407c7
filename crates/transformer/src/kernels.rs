//! Dense CPU kernels.
//!
//! Every reduction keeps a fixed, sequential accumulation order, so results
//! are bit-reproducible regardless of batch composition, chunking or
//! pipeline partitioning. Speed comes from running *independent*
//! accumulations side by side, never from reordering one:
//!
//! * [`Packed`] stores a weight matrix in panels of 8 rows,
//!   column-interleaved, so one pass over the columns feeds 8 row
//!   accumulators for each of up to 4 tokens. Each output still sums its
//!   own row left to right from `0.0`, exactly as the reference [`matvec`]
//!   does, so the two agree bit for bit (the compiler vectorises across
//!   the 8 rows with baseline SSE2; no FMA is involved).
//! * RoPE's (sin, cos) pairs depend only on the position, so
//!   [`rope_angles`] computes them once per token for every head and
//!   layer, with the same expressions a per-call rotation would use.

/// Rows per [`Packed`] panel.
const PANEL: usize = 8;

/// Tokens [`Packed::matmul`] streams through one panel pass together.
const TOKEN_BLOCK: usize = 4;

/// `y = W x` where `W` is `rows × cols` row-major and `x` has `cols`
/// elements. `y` must have `rows` elements. This is the reference order
/// [`Packed::matmul`] reproduces; the model itself runs on [`Packed`].
pub fn matvec(w: &[f32], x: &[f32], y: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    for (r, out) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(x.iter()) {
            acc += a * b;
        }
        *out = acc;
    }
}

/// A `rows × cols` weight matrix packed into panels of `PANEL` (8) rows.
///
/// Panel `p` holds rows `p·PANEL .. (p+1)·PANEL` column-interleaved:
/// `data[(p·cols + c)·PANEL + r]` is `W[p·PANEL + r][c]`. When `rows` is
/// not a multiple of `PANEL`, the last panel is zero-padded; the padding
/// rows are computed and discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct Packed {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Packed {
    /// Pack the row-major `rows × cols` matrix `w` (`cols ≥ 1`).
    pub fn new(w: &[f32], rows: usize, cols: usize) -> Self {
        assert!(cols > 0, "packed matrix needs at least one column");
        assert_eq!(w.len(), rows * cols, "weight shape mismatch");
        let mut data = vec![0.0f32; rows.div_ceil(PANEL) * cols * PANEL];
        for (r, row) in w.chunks_exact(cols).enumerate() {
            let base = (r / PANEL) * cols * PANEL + r % PANEL;
            for (c, &v) in row.iter().enumerate() {
                data[base + c * PANEL] = v;
            }
        }
        Self { rows, cols, data }
    }

    /// Output width.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `y_t = W x_t` for `n_tokens` inputs: `x` is `n_tokens × cols` and
    /// `y` is `n_tokens × rows`, both row-major. Every output equals
    /// [`matvec`]'s bit for bit.
    pub fn matmul(&self, x: &[f32], y: &mut [f32], n_tokens: usize) {
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(x.len(), n_tokens * cols, "input length mismatch");
        assert_eq!(y.len(), n_tokens * rows, "output length mismatch");
        let mut interleaved = vec![0.0f32; cols * TOKEN_BLOCK];
        for (xs, ys) in x.chunks(cols * TOKEN_BLOCK).zip(y.chunks_mut(rows * TOKEN_BLOCK)) {
            // Interleave the block's inputs like the panels:
            // `inputs[c·n + j]` is input `j`'s column `c`.
            let n = xs.len() / cols;
            for (j, row) in xs.chunks_exact(cols).enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    interleaved[c * n + j] = v;
                }
            }
            let inputs = &interleaved[..cols * n];
            match n {
                4 => self.block::<4>(inputs, ys),
                3 => self.block::<3>(inputs, ys),
                2 => self.block::<2>(inputs, ys),
                _ => self.block::<1>(inputs, ys),
            }
        }
    }

    /// `N` interleaved inputs through every panel; `ys` is `N × rows`.
    fn block<const N: usize>(&self, inputs: &[f32], ys: &mut [f32]) {
        for (p, panel) in self.data.chunks_exact(self.cols * PANEL).enumerate() {
            let acc = panel_dots::<N>(panel, inputs);
            let r0 = p * PANEL;
            let live = PANEL.min(self.rows - r0);
            for (y, a) in ys.chunks_exact_mut(self.rows).zip(acc) {
                y[r0..r0 + live].copy_from_slice(&a[..live]);
            }
        }
    }
}

/// One panel against `N` interleaved inputs: `acc[j][r]` sums panel row
/// `r` times input `j` over the columns in order, from `0.0`.
#[inline(always)]
fn panel_dots<const N: usize>(panel: &[f32], inputs: &[f32]) -> [[f32; PANEL]; N] {
    let mut acc = [[0.0f32; PANEL]; N];
    for (w, xs) in panel.chunks_exact(PANEL).zip(inputs.chunks_exact(N)) {
        for (a, &xv) in acc.iter_mut().zip(xs) {
            for (a, &w) in a.iter_mut().zip(w) {
                *a += w * xv;
            }
        }
    }
    acc
}

/// RMSNorm: `x_i ← x_i / rms(x) · g_i` with `rms(x) = sqrt(mean(x²) + ε)`.
pub fn rmsnorm(x: &mut [f32], gain: &[f32], eps: f32) {
    assert_eq!(x.len(), gain.len());
    let ss: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ss + eps).sqrt();
    for (v, g) in x.iter_mut().zip(gain.iter()) {
        *v *= inv * g;
    }
}

/// Numerically stable in-place softmax.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// SiLU activation: `x · σ(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// RoPE's (sin, cos) pairs for sequence position `pos`, one per pair of a
/// head `2 · angles.len()` wide: pair `(2i, 2i+1)` rotates by
/// `pos · θ^(−2i/d)` (θ = 10000). They depend only on the position, so one
/// table serves every head and layer.
pub fn rope_angles(pos: usize, angles: &mut [(f32, f32)]) {
    let d = 2 * angles.len();
    for (i, sc) in angles.iter_mut().enumerate() {
        let freq = 1.0 / 10000f32.powf(2.0 * i as f32 / d as f32);
        let angle = pos as f32 * freq;
        *sc = angle.sin_cos();
    }
}

/// Apply rotary position embeddings in-place to one head-sized slice,
/// using its position's [`rope_angles`].
pub fn rope(head: &mut [f32], angles: &[(f32, f32)]) {
    assert_eq!(head.len(), 2 * angles.len(), "RoPE table does not match head dim");
    for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(angles) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a * cos - b * sin;
        pair[1] = a * sin + b * cos;
    }
}

/// `acc += x` elementwise (residual connection).
pub fn add_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len());
    for (a, b) in acc.iter_mut().zip(x.iter()) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Rotate `head` to position `pos` through the per-token table.
    fn rope_at(head: &mut [f32], pos: usize) {
        let mut angles = vec![(0.0, 0.0); head.len() / 2];
        rope_angles(pos, &mut angles);
        rope(head, &angles);
    }

    /// The per-call rotation the table replaced: recompute every pair's
    /// frequency and angle in place.
    fn rope_per_call(head: &mut [f32], pos: usize) {
        let d = head.len();
        for i in 0..d / 2 {
            let freq = 1.0 / 10000f32.powf(2.0 * i as f32 / d as f32);
            let angle = pos as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let a = head[2 * i];
            let b = head[2 * i + 1];
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// `Packed::matmul` reproduces `matvec` bit for bit on every token,
        /// for row counts that are and are not multiples of the panel
        /// height and token counts on both sides of the token block.
        #[test]
        fn packed_matmul_is_bit_identical_to_matvec(
            rows in 1usize..=70,
            cols in 1usize..=130,
            n_tokens in 0usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            let mut z = seed | 1;
            let mut next = move || {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                // Mixed signs and magnitudes, so rounding differences show.
                ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * if z & 1 == 0 { 1.0 } else { 37.0 }
            };
            let w: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
            let x: Vec<f32> = (0..n_tokens * cols).map(|_| next()).collect();
            let packed = Packed::new(&w, rows, cols);
            prop_assert_eq!((packed.rows(), packed.cols()), (rows, cols));
            let mut y = vec![f32::NAN; n_tokens * rows];
            packed.matmul(&x, &mut y, n_tokens);
            let mut expected = vec![0.0f32; rows];
            for t in 0..n_tokens {
                matvec(&w, &x[t * cols..(t + 1) * cols], &mut expected, rows, cols);
                prop_assert_eq!(bits(&y[t * rows..(t + 1) * rows]), bits(&expected));
            }
        }

        /// The per-token RoPE table rotates exactly as recomputing every
        /// angle per call did.
        #[test]
        fn rope_table_matches_per_call_formula(
            half in 1usize..=64,
            pos in 0usize..=70_000,
            seed in 0u64..u64::MAX,
        ) {
            let head: Vec<f32> = (0..2 * half)
                .map(|i| ((seed >> (i % 48)) & 0xffff) as f32 / 4096.0 - 8.0)
                .collect();
            let mut table = head.clone();
            rope_at(&mut table, pos);
            let mut per_call = head;
            rope_per_call(&mut per_call, pos);
            prop_assert_eq!(bits(&table), bits(&per_call));
        }
    }

    #[test]
    fn matvec_identity() {
        let mut w = vec![0.0; 9];
        for i in 0..3 {
            w[i * 3 + i] = 1.0;
        }
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        matvec(&w, &x, &mut y, 3, 3);
        assert_eq!(y, x);
    }

    #[test]
    fn matvec_known_values() {
        // [[1,2],[3,4]] · [5,6] = [17, 39]
        let w = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 2];
        matvec(&w, &[5.0, 6.0], &mut y, 2, 2);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn rmsnorm_produces_unit_rms() {
        let mut x = vec![3.0, -4.0, 12.0, 0.0];
        let gain = vec![1.0; 4];
        rmsnorm(&mut x, &gain, 1e-6);
        let rms: f32 = (x.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0, 1002.0];
        softmax(&mut x);
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn silu_fixed_points() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(10.0) - 10.0).abs() < 1e-3, "saturates to identity");
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn rope_preserves_norm_and_is_position_dependent() {
        let orig = vec![1.0f32, 0.5, -0.3, 0.8];
        let mut a = orig.clone();
        rope_at(&mut a, 0);
        // Position 0 rotates by angle 0 → unchanged.
        assert_eq!(a, orig);
        let mut b = orig.clone();
        rope_at(&mut b, 7);
        assert_ne!(b, orig);
        let n0: f32 = orig.iter().map(|v| v * v).sum();
        let n7: f32 = b.iter().map(|v| v * v).sum();
        assert!((n0 - n7).abs() < 1e-5, "rotation preserves norm");
    }

    #[test]
    fn rope_relative_rotation_composes() {
        // Rotating the same vector to positions p and q differs by the
        // rotation of (q − p) applied in the same basis: check via dot
        // products (relative-position property RoPE is designed for).
        let q = vec![0.3f32, -0.7, 1.1, 0.2];
        let k = vec![0.9f32, 0.1, -0.4, 0.5];
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let mut q5 = q.clone();
        let mut k3 = k.clone();
        rope_at(&mut q5, 5);
        rope_at(&mut k3, 3);
        let mut q12 = q.clone();
        let mut k10 = k.clone();
        rope_at(&mut q12, 12);
        rope_at(&mut k10, 10);
        assert!((dot(&q5, &k3) - dot(&q12, &k10)).abs() < 1e-4);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[0.5, -0.5]);
        assert_eq!(a, vec![1.5, 1.5]);
    }
}
