//! Conv2d forward and gradients as GEMMs with no column matrix.
//!
//! Layout convention: images and feature maps are `[N, C, H, W]` row-major,
//! a weight is `[OC, C·KH·KW]`. The im2col matrix of a batch is
//! `[N·OH·OW, C·KH·KW]` — one row per output pixel, one column per tap
//! `(channel, ky, kx)` — and the three products of a convolution are
//! products with it: the output is `w · im2colᵀ`, the weight gradient
//! `up · im2col`, the input gradient the fold (col2im) of `wᵀ · up`.
//!
//! None of them builds it, and none gathers an operand tap by tap. Each
//! image is copied once, laid out by [`ImageCopy`] so that every tap's
//! im2col row is a run of the copy at a per-tap offset, and the GEMM
//! micro-tile reads the image from that copy in place:
//!
//! * the **forward** loads each k-step's B row from the copy at the tap's
//!   offset instead of from a packed panel, and writes each image's product
//!   straight into its NCHW block;
//! * the **weight gradient** is computed as its transpose: taps are the
//!   tile's rows, whose A scalars it reads from the copies of a k-block's
//!   images at a tap's offset plus a pixel's position, and output channels
//!   its columns, [`pack_planes`] packing `up`'s channels over the block;
//! * the **input gradient** reads `up`'s planes as they are for its B rows
//!   and adds each tile of `wᵀ · up` straight into a zero-padded copy of the
//!   image — the adjoint of the forward's — from which the image is copied
//!   out once.
//!
//! Each product sums the same terms in the same order as the lowering it
//! replaced (the input gradient adds into each pixel in output-pixel order,
//! as the fold does), so every bit is the lowering's; the tests hold the
//! kernels to that lowering, built from serial oracles.

use crate::gemm::{self, zero_tail};
use crate::kernels::{PackElem, Stretches};
use crate::pool::Buffer;
use crate::tensor::Tensor;
use legw_parallel::{current, par_chunks_mut};
use std::ops::Range;

/// Geometry of a 2-D convolution: input/kernel/stride/padding extents and
/// the derived output size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeom {
    /// Output height.
    pub fn oh(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Checks the geometry is realisable.
    pub fn validate(&self) {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }
}

/// Conv2d forward: `out [n, oc, oh, ow]` from images `x [n, c, h, w]` and
/// a weight `w [oc, c·kh·kw]`. Per image one GEMM, `w · Unfold(xᵢ)ᵀ`, whose
/// B rows the micro-tile reads in place from one copy of the image
/// (`ImageCopy`: zero-padded, its stride phases split out) at per-tap
/// offsets, and whose product is the image's NCHW output block; every
/// element of `out` is overwritten. Work is split over images, and over
/// pixel ranges too when there are fewer than two images per lane.
///
/// Bitwise, this is the im2col lowering it replaced — `im2col(x) · wᵀ`
/// permuted to NCHW — on every kernel tier and at any thread count: the
/// k-blocks, the tile's mul + add order and its stores are the GEMM
/// engine's.
pub fn conv2d_into(x: &[f32], w: &[f32], n: usize, oc: usize, g: &Conv2dGeom, out: &mut [f32]) {
    check(g, x, n, "conv2d_into input");
    assert_eq!(w.len(), oc * g.c * g.kh * g.kw, "conv2d_into weight length");
    assert_eq!(out.len(), n * oc * g.oh() * g.ow(), "conv2d_into out length");
    gemm::conv_forward(&current(), x, w, n, oc, g, out);
}

/// Conv2d weight gradient: `dw [oc, c·kh·kw] = Σ` over every output pixel
/// of the batch of `up[·, o, pixel] · Unfold(x)[pixel, ·]`, from the images
/// `x [n, c, h, w]` and the output gradient `up [n, oc, oh, ow]`. Computed
/// as its transpose, `[c·kh·kw, oc]`: the tiles read the taps in place from
/// one padded copy of each image per k-block, and `up`'s channels from a
/// panel packed per block. The reduction is split across the pool at the
/// GEMM engine's own k-blocks and summed back in block order, so the bits
/// are the serial product's — `up2ᵀ · im2col(x)` of the lowering it
/// replaced — at any thread count. `dw` is overwritten.
pub fn conv2d_grad_w_into(
    x: &[f32],
    up: &[f32],
    n: usize,
    oc: usize,
    g: &Conv2dGeom,
    dw: &mut [f32],
) {
    check(g, x, n, "conv2d_grad_w_into input");
    assert_eq!(up.len(), n * oc * g.oh() * g.ow(), "conv2d_grad_w_into up length");
    assert_eq!(dw.len(), oc * g.c * g.kh * g.kw, "conv2d_grad_w_into dw length");
    gemm::conv_dw(&current(), x, up, n, oc, g, dw);
}

/// Conv2d input gradient: `dx [n, c, h, w]`, the fold (col2im) of
/// `wᵀ · upᵢ` per image, from the output gradient `up [n, oc, oh, ow]` and
/// the weight `w [oc, c·kh·kw]`. Each tile of `wᵀ · upᵢ` reads `up`'s planes
/// in place and is added straight into a per-thread padded copy of the
/// image, tiles in pixel order and taps from the last to the first, so each
/// pixel receives its contributions in output-pixel order and the bits are
/// the lowering's — `col2im(up2 · w)` — at any thread count. `dx` is
/// overwritten.
pub fn conv2d_grad_x_into(
    up: &[f32],
    w: &[f32],
    n: usize,
    oc: usize,
    g: &Conv2dGeom,
    dx: &mut [f32],
) {
    check(g, dx, n, "conv2d_grad_x_into dx");
    assert_eq!(up.len(), n * oc * g.oh() * g.ow(), "conv2d_grad_x_into up length");
    assert_eq!(w.len(), oc * g.c * g.kh * g.kw, "conv2d_grad_x_into weight length");
    gemm::conv_dx(&current(), up, w, n, oc, g, dx);
}

/// Validates `g` and that `images` holds `n` images of its input shape.
fn check(g: &Conv2dGeom, images: &[f32], n: usize, what: &str) {
    g.validate();
    assert_eq!(images.len(), n * g.c * g.h * g.w, "{what} length");
}

/// Unfolds `input [N, C, H, W]` into a column matrix `[N·OH·OW, C·KH·KW]`:
/// one row per output pixel, one column per tap `(channel, ky, kx)`.
///
/// The convolutions never build this matrix: they read the images in
/// place. Row blocks run on the pool; every element is written once, so the
/// output starts as a dirty pooled buffer.
pub fn im2col(input: &Tensor, g: &Conv2dGeom) -> Tensor {
    g.validate();
    assert_eq!(input.ndim(), 4, "im2col expects [N,C,H,W], got {:?}", input.shape());
    let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    assert_eq!((c, h, w), (g.c, g.h, g.w), "geometry mismatch");
    let (ckk, rows) = (c * g.kh * g.kw, n * g.oh() * g.ow());
    let mut out = Buffer::dirty(rows * ckk);
    let pool = current();
    let rows_per_task = if out.len() < crate::PAR_THRESHOLD || pool.threads() == 1 {
        rows.max(1)
    } else {
        rows.div_ceil(pool.threads() * 4).max(1)
    };
    par_chunks_mut(&pool, &mut out, rows_per_task * ckk, |start, block| {
        pack_taps(block, input.as_slice(), g, start / ckk);
    });
    Tensor::from_buffer(out, &[rows, ckk])
}

/// The `j` in `0..len` for which `j·stride + k − pad` lies in `0..extent`,
/// as `(lo, hi)` with `lo <= hi`: the output columns (rows) that put kernel
/// column (row) `k` inside an image `extent` wide (high).
fn inside(g: &Conv2dGeom, extent: usize, k: usize, len: usize) -> (usize, usize) {
    let s = g.stride;
    // The input column under output column 0.
    let x0 = k as isize - g.pad as isize;
    let lo = if x0 >= 0 { 0 } else { x0.unsigned_abs().div_ceil(s) };
    let hi = (extent as isize - x0).max(0) as usize;
    (lo.min(len), hi.div_ceil(s).clamp(lo.min(len), len))
}

/// The layout of the copy of one image that the conv kernels multiply
/// from (and that the input gradient adds into): every tap's im2col row
/// (its value at each output pixel) is, along each run of output pixels, a
/// contiguous run of the copy.
///
/// The copy is a stack of planes, one per `(channel, ky mod stride, φ)`.
/// Row `r` of a plane holds, at column `u`, the zero-padded image at row
/// `r·stride + ky mod stride` and column `u·stride + φ`. Output pixel
/// `(oy, ox)` sits at `oy·pitch + ox` of every plane, and tap
/// `(ci, ky, kx)` reads the plane of `φ = kx mod shift` at `(ky / stride)·
/// pitch + kx / shift` from there: its offset. Two shapes of this one
/// layout:
///
/// * **padded** (`shift = stride`): the padded image once, its row and
///   column phases split out for a stride — a plane row is a padded input
///   row, `pitch = ow + (kw − 1) / stride`. A run is one output row.
/// * **shifted** (`shift = kw`): one plane per kernel column, shifted by
///   it, so `pitch = ow` and a run is every output pixel, across rows: the
///   micro-tile stays full on maps narrower than it, at `kw` times the
///   copy.
///
/// The forward ([`ImageCopy::new`]) takes the shape that runs fewer
/// micro-tiles, the padded one on a tie. The two read the same values, so
/// the product's bits do not depend on the choice. The gradients take the
/// padded one ([`ImageCopy::padded`]): the weight gradient reads its taps
/// through a table of pixel positions, so rows need not be contiguous, and
/// in it an image pixel has one place, into which the input gradient adds.
/// Either way a 1×1 stride-2 projection copies a quarter of the image.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ImageCopy {
    /// Column step between a tap and its plane: `stride` or `kw`.
    shift: usize,
    /// Row phases: `min(stride, kh)`.
    phases: usize,
    /// Column planes per row phase: `min(shift, kw)`.
    cols: usize,
    /// Rows per plane: `oh + (kh − 1) / stride`.
    rows: usize,
    /// Elements per plane row: `ow + (kw − 1) / shift`.
    pitch: usize,
    /// Output width.
    ow: usize,
}

impl ImageCopy {
    /// The layout for `g` under a micro-tile `nr` pixels wide.
    pub(crate) fn new(g: &Conv2dGeom, nr: usize) -> ImageCopy {
        let (oh, ow) = (g.oh(), g.ow());
        let shift = if oh * ow.div_ceil(nr) <= (oh * ow).div_ceil(nr) { g.stride } else { g.kw };
        ImageCopy::with_shift(g, shift)
    }

    /// The padded shape for `g`: the smallest copy, and the one in which an
    /// image pixel has one place.
    pub(crate) fn padded(g: &Conv2dGeom) -> ImageCopy {
        ImageCopy::with_shift(g, g.stride)
    }

    fn with_shift(g: &Conv2dGeom, shift: usize) -> ImageCopy {
        let s = g.stride;
        ImageCopy {
            shift,
            phases: s.min(g.kh),
            cols: shift.min(g.kw),
            rows: g.oh() + (g.kh - 1) / s,
            pitch: g.ow() + (g.kw - 1) / shift,
            ow: g.ow(),
        }
    }

    /// Elements per plane.
    fn plane(&self) -> usize {
        self.rows * self.pitch
    }

    /// Elements of one image's copy.
    pub(crate) fn len(&self, g: &Conv2dGeom) -> usize {
        g.c * self.phases * self.cols * self.plane()
    }

    /// Output pixel `p`'s position in every plane.
    pub(crate) fn position(&self, p: usize) -> usize {
        p / self.ow * self.pitch + p % self.ow
    }

    /// Writes every tap's offset, `off[q]` for im2col column `q`, into `off`
    /// (`c·kh·kw` long).
    pub(crate) fn offsets(&self, g: &Conv2dGeom, off: &mut [usize]) {
        debug_assert_eq!(off.len(), g.c * g.kh * g.kw);
        for (q, o) in off.iter_mut().enumerate() {
            let (ci, ky, kx) = tap_at(g, q);
            let plane = (ci * self.phases + ky % g.stride) * self.cols + kx % self.shift;
            *o = plane * self.plane() + ky / g.stride * self.pitch + kx / self.shift;
        }
    }

    /// The grid a pixel range split over tasks keeps to: whole micro-tiles
    /// `nr` wide where one run crosses output rows, whole rows elsewhere.
    pub(crate) fn run_grid(&self, nr: usize) -> usize {
        if self.pitch == self.ow {
            nr
        } else {
            self.ow
        }
    }

    /// The runs of output pixels `pixels` whose copy positions are
    /// contiguous, as `(pixels, position of the first)`: all of them when
    /// `pitch = ow`, else the part in each output row.
    pub(crate) fn runs(
        &self,
        pixels: Range<usize>,
    ) -> impl Iterator<Item = (Range<usize>, usize)> + '_ {
        let mut p = pixels.start;
        std::iter::from_fn(move || {
            (p < pixels.end).then(|| {
                let end = if self.pitch == self.ow {
                    pixels.end
                } else {
                    pixels.end.min((p / self.ow + 1) * self.ow)
                };
                let run = (p..end, self.position(p));
                p = end;
                run
            })
        })
    }

    /// Copies into `dst`, one image's copy long, the plane rows that the
    /// output pixels `pixels` read from `image [c, h, w]`, each value
    /// through [`PackElem::pack`], and returns the number of elements
    /// written. Rows that `pixels` do not read keep whatever `dst` held.
    pub(crate) fn copy<E: PackElem>(
        &self,
        g: &Conv2dGeom,
        image: &[f32],
        dst: &mut [E],
        pixels: Range<usize>,
    ) -> usize {
        debug_assert!(
            image.len() == g.c * g.h * g.w && !pixels.is_empty() && pixels.end <= g.oh() * self.ow
        );
        debug_assert_eq!(dst.len(), self.len(g));
        let (s, pitch) = (g.stride, self.pitch);
        let rows = pixels.start / self.ow..(pixels.end - 1) / self.ow + 1 + (g.kh - 1) / s;
        if rows.len() == self.rows {
            dst.fill(E::default());
        } else {
            for d in dst.chunks_exact_mut(self.plane()) {
                d[rows.start * pitch..rows.end * pitch].fill(E::default());
            }
        }
        if s == 2 && self.cols == 2 {
            self.copy_pairs(g, image, dst, rows.clone());
        } else {
            self.lines(g, rows.clone(), |at, from, len| {
                let (d, line) = (&mut dst[at..at + len], &image[from..from + (len - 1) * s + 1]);
                if s == 1 {
                    d.iter_mut().zip(line).for_each(|(d, &v)| *d = E::pack(v));
                } else {
                    d.iter_mut().zip(line.iter().step_by(s)).for_each(|(d, &v)| *d = E::pack(v));
                }
            });
        }
        dst.len() / self.rows * rows.len()
    }

    /// [`ImageCopy::copy`]'s rows at stride 2 with both column planes: one
    /// pass over each image row writes its even columns into one plane and
    /// its odd ones into the other, where a pass per plane reads the row
    /// twice. On the benchmark's two stride-2 3×3 weight gradients this
    /// took about 0.83× the time of two passes.
    fn copy_pairs<E: PackElem>(
        &self,
        g: &Conv2dGeom,
        image: &[f32],
        dst: &mut [E],
        rows: Range<usize>,
    ) {
        let plane = self.plane();
        // Image column 0 lies in one plane and column 1 in the other; `a` is
        // the stretch of a plane row that takes columns 0, 2, …, `b` the one
        // that takes columns 1, 3, ….
        let [(lo0, hi0), (lo1, hi1)] = [0, 1].map(|phi| inside(g, g.w, phi, self.pitch));
        let first = g.pad % 2;
        for phase in 0..self.phases {
            let (r0, r1) = inside(g, g.h, phase, self.rows);
            let (r0, r1) = (r0.max(rows.start), r1.min(rows.end));
            let iy0 = (r0 * 2 + phase).wrapping_sub(g.pad);
            for ci in 0..g.c {
                let at = (ci * self.phases + phase) * 2 * plane;
                for r in r0..r1 {
                    let line = &image[(ci * g.h + iy0 + (r - r0) * 2) * g.w..][..g.w];
                    let (d0, d1) = dst[at + r * self.pitch..].split_at_mut(plane);
                    let (d0, d1) = (&mut d0[lo0..hi0], &mut d1[lo1..hi1]);
                    let (a, b) = if first == 0 { (d0, d1) } else { (d1, d0) };
                    let n = a.len().min(b.len());
                    for ((x, y), p) in a.iter_mut().zip(b.iter_mut()).zip(line.chunks_exact(2)) {
                        (*x, *y) = (E::pack(p[0]), E::pack(p[1]));
                    }
                    a.iter_mut().enumerate().skip(n).for_each(|(j, x)| *x = E::pack(line[2 * j]));
                    b.iter_mut()
                        .enumerate()
                        .skip(n)
                        .for_each(|(j, y)| *y = E::pack(line[2 * j + 1]));
                }
            }
        }
    }

    /// The adjoint of [`ImageCopy::copy`] over all output pixels: `image
    /// [c, h, w]` from a padded copy `src`, each pixel the value at its one
    /// place in the copy, zero where it has none (a pixel no tap reads).
    pub(crate) fn copy_out(&self, g: &Conv2dGeom, src: &[f32], image: &mut [f32]) {
        debug_assert!(
            self.shift == g.stride && src.len() == self.len(g) && image.len() == g.c * g.h * g.w
        );
        image.fill(0.0);
        self.lines(g, 0..self.rows, |at, from, len| {
            let line = image[from..from + (len - 1) * g.stride + 1].iter_mut().step_by(g.stride);
            line.zip(&src[at..at + len]).for_each(|(d, &v)| *d = v);
        });
    }

    /// Calls `f(at, from, len)` for each stretch of a row in `rows` of a
    /// plane that lies inside the image: `len` copy elements from `at` hold
    /// the image's elements from `from` on, `stride` apart.
    fn lines(&self, g: &Conv2dGeom, rows: Range<usize>, mut f: impl FnMut(usize, usize, usize)) {
        let (s, pitch, plane) = (g.stride, self.pitch, self.plane());
        for phase in 0..self.phases {
            // Plane rows `r0..r1` of this phase lie inside the image, from
            // image row `iy0` on with step `s`.
            let (r0, r1) = inside(g, g.h, phase, self.rows);
            let (r0, r1) = (r0.max(rows.start), r1.min(rows.end));
            let iy0 = (r0 * s + phase).wrapping_sub(g.pad);
            for phi in 0..self.cols {
                // Columns `lo..hi` of a `φ` plane lie inside the image, from
                // image column `from` on with step `s`.
                let (lo, hi) = inside(g, g.w, phi, pitch);
                let from = (lo * s + phi).wrapping_sub(g.pad);
                if lo == hi {
                    continue;
                }
                for ci in 0..g.c {
                    let at = ((ci * self.phases + phase) * self.cols + phi) * plane + lo;
                    for r in r0..r1 {
                        f(at + r * pitch, (ci * g.h + iy0 + (r - r0) * s) * g.w + from, hi - lo);
                    }
                }
            }
        }
    }

    /// Where a tile of output pixels `p0..p0 + cols` goes in a padded copy:
    /// the first pixel's position, and the stretches
    /// ([`kernels::Micro::scatter`](crate::kernels::Micro::scatter)) a row
    /// of the tile is cut into, one per output row.
    pub(crate) fn stretches(&self, p0: usize, cols: usize) -> (usize, Stretches) {
        let (ow, gap) = (self.ow, self.pitch - self.ow);
        let first = if gap == 0 { cols } else { ow - p0 % ow };
        (self.position(p0), Stretches { first, run: ow, gap })
    }
}

/// Im2col column `q` as its tap `(channel, ky, kx)`.
fn tap_at(g: &Conv2dGeom, q: usize) -> (usize, usize, usize) {
    (q / (g.kh * g.kw), q / g.kw % g.kh, q % g.kw)
}

/// The tap after `(ci, ky, kx)` in im2col column order.
#[inline(always)]
fn next_tap(g: &Conv2dGeom, ci: usize, ky: usize, kx: usize) -> (usize, usize, usize) {
    if kx + 1 < g.kw {
        (ci, ky, kx + 1)
    } else if ky + 1 < g.kh {
        (ci, ky + 1, 0)
    } else {
        (ci + 1, 0, 0)
    }
}

/// Taps one pass of [`pack_taps`] tables.
const TAP_TABLE: usize = 256;

/// [`im2col`]'s gather: rows `k0..` of the im2col matrix of `x` into `dst`,
/// whole rows of `c·kh·kw` taps. Up to [`TAP_TABLE`] taps at a time are
/// tabled (kernel row, kernel column, offset from the receptive field's
/// corner), so a pixel whose receptive field lies inside the image is a
/// gather at fixed offsets from its corner; only border pixels check each
/// tap.
fn pack_taps(dst: &mut [f32], x: &[f32], g: &Conv2dGeom, k0: usize) {
    let (ow, ohw, img, plane) = (g.ow(), g.oh() * g.ow(), g.c * g.h * g.w, g.h * g.w);
    let (ih, iw, kh, kw) = (g.h as isize, g.w as isize, g.kh as isize, g.kw as isize);
    let ckk = g.c * g.kh * g.kw;
    for c0 in (0..ckk).step_by(TAP_TABLE) {
        let taps = TAP_TABLE.min(ckk - c0);
        let (mut ky, mut kx, mut off) =
            ([0isize; TAP_TABLE], [0isize; TAP_TABLE], [0usize; TAP_TABLE]);
        let mut tap = tap_at(g, c0);
        for t in 0..taps {
            let (ci, y, x) = tap;
            (ky[t], kx[t], off[t]) = (y as isize, x as isize, ci * plane + y * g.w + x);
            tap = next_tap(g, ci, y, x);
        }
        let (mut ni, mut oy, mut ox) = (k0 / ohw, k0 % ohw / ow, k0 % ow);
        for row in dst.chunks_exact_mut(ckk) {
            let image = &x[ni * img..(ni + 1) * img];
            // The receptive field's corner.
            let (y0, x0) = (
                (oy * g.stride) as isize - g.pad as isize,
                (ox * g.stride) as isize - g.pad as isize,
            );
            let row = &mut row[c0..c0 + taps];
            if y0 >= 0 && x0 >= 0 && y0 + kh <= ih && x0 + kw <= iw {
                let field = &image[(y0 * iw + x0) as usize..];
                row.iter_mut().zip(&off[..taps]).for_each(|(d, &o)| *d = field[o]);
            } else {
                for (j, d) in row.iter_mut().enumerate() {
                    let (iy, ix) = (y0 + ky[j], x0 + kx[j]);
                    let at = y0 * iw + x0 + off[j] as isize;
                    let inside = (0..ih).contains(&iy) && (0..iw).contains(&ix);
                    *d = if inside { image[at as usize] } else { 0.0 };
                }
            }
            (ni, oy, ox) = if ox + 1 < ow {
                (ni, oy, ox + 1)
            } else if oy + 1 < g.oh() {
                (ni, oy + 1, 0)
            } else {
                (ni + 1, 0, 0)
            };
        }
    }
}

/// The `rows × kb` block at `(c0, k0)` of feature maps `x [n, c, hw]` read
/// as `[c, n·hw]` into `w`-row micro-panels, k-major: each channel row a run
/// of contiguous plane stretches, stored with stride `w`. Rows past `rows`
/// in the last panel are zeroed. A weight gradient's B: the output
/// gradient's channels over a k-block of pixels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_planes<E: PackElem>(
    dst: &mut [E],
    x: &[f32],
    c: usize,
    hw: usize,
    c0: usize,
    rows: usize,
    k0: usize,
    kb: usize,
    w: usize,
) {
    for (pi, panel) in dst.chunks_exact_mut(kb * w).enumerate() {
        let first = c0 + pi * w;
        let live = w.min(c0 + rows - first);
        for r in 0..live {
            let (mut kk, mut ni, mut p) = (0, k0 / hw, k0 % hw);
            while kk < kb {
                let len = (hw - p).min(kb - kk);
                let src = &x[(ni * c + first + r) * hw + p..][..len];
                for (j, &v) in src.iter().enumerate() {
                    panel[(kk + j) * w + r] = E::pack(v);
                }
                (kk, ni, p) = (kk + len, ni + 1, 0);
            }
        }
        zero_tail(panel, live, kb, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::KC;
    use crate::kernels::{self, Kernel};
    use legw_parallel::{with_pool, ThreadPool};
    use legw_propcheck::collection::vec;
    use legw_propcheck::prelude::*;
    use std::sync::Arc;

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeom {
        Conv2dGeom { c, h, w, kh: k, kw: k, stride, pad }
    }

    #[test]
    fn output_size_formula() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.oh(), g.ow()), (32, 32)); // "same" conv
        let g2 = geom(3, 32, 32, 3, 2, 1);
        assert_eq!((g2.oh(), g2.ow()), (16, 16));
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        let g = geom(2, 3, 3, 1, 1, 0);
        let x = Tensor::from_vec((0..18).map(|v| v as f32).collect(), &[1, 2, 3, 3]);
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[9, 2]);
        // column c of row (y*w+x) is channel c at pixel (y,x)
        assert_eq!(cols.at2(0, 0), 0.0);
        assert_eq!(cols.at2(0, 1), 9.0);
        assert_eq!(cols.at2(8, 0), 8.0);
        assert_eq!(cols.at2(8, 1), 17.0);
    }

    #[test]
    fn conv2d_equals_direct_conv() {
        let g = geom(2, 5, 5, 3, 1, 1);
        let (n, oc) = (2, 3);
        let x: Vec<f32> = (0..n * 2 * 25).map(|v| ((v * 37 % 11) as f32) - 5.0).collect();
        let wgt: Vec<f32> = (0..oc * 2 * 9).map(|v| ((v * 13 % 7) as f32) * 0.1 - 0.3).collect();
        let (oh, ow) = (g.oh(), g.ow());
        let mut out = vec![f32::NAN; n * oc * oh * ow];
        conv2d_into(&x, &wgt, n, oc, &g, &mut out);
        for ni in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..2 {
                            for ky in 0..3 {
                                for kx in 0..3 {
                                    let iy = oy as isize + ky as isize - 1;
                                    let ix = ox as isize + kx as isize - 1;
                                    if (0..5).contains(&iy) && (0..5).contains(&ix) {
                                        let xi =
                                            x[((ni * 2 + ci) * 5 + iy as usize) * 5 + ix as usize];
                                        acc += xi * wgt[o * 18 + (ci * 3 + ky) * 3 + kx];
                                    }
                                }
                            }
                        }
                        let got = out[((ni * oc + o) * oh + oy) * ow + ox];
                        assert!((got - acc).abs() < 1e-4, "{got} vs {acc}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_rejected() {
        geom(1, 2, 2, 5, 1, 0).validate();
    }

    /// The serial unfold, as the oracle: zeroes `out`, then copies each
    /// in-bounds span of each row.
    fn fill_cols_oracle(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
        let (c, h, w) = (g.c, g.h, g.w);
        let (oh, ow) = (g.oh(), g.ow());
        let ckk = c * g.kh * g.kw;
        out.fill(0.0);
        for (row, dst) in out.chunks_mut(ckk).enumerate().take(n * oh * ow) {
            let (ox, oy, ni) = (row % ow, (row / ow) % oh, row / (oh * ow));
            for ci in 0..c {
                for ky in 0..g.kh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let x0 = (ox * g.stride) as isize - g.pad as isize;
                    let kx_lo = (-x0).max(0) as usize;
                    let kx_hi = (w as isize - x0).clamp(0, g.kw as isize) as usize;
                    if kx_lo >= kx_hi {
                        continue;
                    }
                    let col = (ci * g.kh + ky) * g.kw;
                    let s = ((ni * c + ci) * h + iy as usize) * w + (x0 + kx_lo as isize) as usize;
                    dst[col + kx_lo..col + kx_hi].copy_from_slice(&src[s..s + kx_hi - kx_lo]);
                }
            }
        }
    }

    /// The serial fold (col2im), as the oracle: zeroes `out`, then adds
    /// every in-bounds column element, rows in order.
    fn fold_cols_oracle(src: &[f32], n: usize, g: &Conv2dGeom, out: &mut [f32]) {
        let (oh, ow) = (g.oh(), g.ow());
        let ckk = g.c * g.kh * g.kw;
        out.fill(0.0);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * ckk;
                    for ci in 0..g.c {
                        for ky in 0..g.kh {
                            let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                            for kx in 0..g.kw {
                                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                if iy >= 0 && (iy as usize) < g.h && ix >= 0 && (ix as usize) < g.w
                                {
                                    let col = (ci * g.kh + ky) * g.kw + kx;
                                    out[((ni * g.c + ci) * g.h + iy as usize) * g.w
                                        + ix as usize] += src[row + col];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// `[n·hw, c]` ↔ `[n, c, hw]`, serially: `to_planes` picks the NCHW
    /// direction.
    fn permute(src: &[f32], n: usize, c: usize, hw: usize, to_planes: bool) -> Vec<f32> {
        let mut out = vec![0.0; src.len()];
        for ni in 0..n {
            for ci in 0..c {
                for p in 0..hw {
                    let (rows, planes) = ((ni * hw + p) * c + ci, (ni * c + ci) * hw + p);
                    if to_planes {
                        out[planes] = src[rows];
                    } else {
                        out[rows] = src[planes];
                    }
                }
            }
        }
        out
    }

    /// The im2col lowering the kernels replaced, as the oracle: the
    /// unfold, one GEMM on a one-lane pool, the NCHW permutes and the fold.
    /// Returns `(out, dw, dx)`.
    fn lowering_oracle(
        x: &[f32],
        w: &[f32],
        up: &[f32],
        n: usize,
        oc: usize,
        g: &Conv2dGeom,
    ) -> [Vec<f32>; 3] {
        let (hw, ckk) = (g.oh() * g.ow(), g.c * g.kh * g.kw);
        let rows = n * hw;
        let one = ThreadPool::new(1);
        let mut cols = vec![0.0; rows * ckk];
        fill_cols_oracle(x, n, g, &mut cols);
        let mut out2 = vec![0.0; rows * oc];
        gemm::gemm_into(&one, false, true, &cols, w, rows, ckk, oc, &mut out2, false);
        let up2 = permute(up, n, oc, hw, false);
        let mut dw = vec![0.0; oc * ckk];
        gemm::gemm_into(&one, true, false, &up2, &cols, oc, rows, ckk, &mut dw, false);
        let mut dcols = vec![0.0; rows * ckk];
        gemm::gemm_into(&one, false, false, &up2, w, rows, oc, ckk, &mut dcols, false);
        let mut dx = vec![0.0; x.len()];
        fold_cols_oracle(&dcols, n, g, &mut dx);
        [permute(&out2, n, oc, hw, true), dw, dx]
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// The three kernels against [`lowering_oracle`], bit for bit, on
    /// pools of 1, 2 and 4 lanes, into NaN-poisoned destinations.
    fn assert_kernels_equal_lowering(
        x: &[f32],
        w: &[f32],
        up: &[f32],
        n: usize,
        oc: usize,
        g: &Conv2dGeom,
    ) {
        let [out, dw, dx] = lowering_oracle(x, w, up, n, oc, g);
        for threads in [1, 2, 4] {
            let pool = Arc::new(ThreadPool::new(threads));
            with_pool(&pool, || {
                let mut got = vec![f32::NAN; out.len()];
                conv2d_into(x, w, n, oc, g, &mut got);
                assert_bits(
                    &format!("conv2d_into {g:?} n={n} oc={oc} threads={threads}"),
                    &got,
                    &out,
                );
                let mut got = vec![f32::NAN; dw.len()];
                conv2d_grad_w_into(x, up, n, oc, g, &mut got);
                assert_bits(
                    &format!("conv2d_grad_w_into {g:?} n={n} oc={oc} threads={threads}"),
                    &got,
                    &dw,
                );
                let mut got = vec![f32::NAN; dx.len()];
                conv2d_grad_x_into(up, w, n, oc, g, &mut got);
                assert_bits(
                    &format!("conv2d_grad_x_into {g:?} n={n} oc={oc} threads={threads}"),
                    &got,
                    &dx,
                );
            });
        }
    }

    /// Runs `f` under every kernel tier this CPU has, in f32 and in bf16
    /// panel mode.
    fn for_each_mode(mut f: impl FnMut()) {
        for tier in [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512] {
            if kernels::supported(tier) {
                kernels::with_override(tier, || {
                    f();
                    gemm::with_bf16(&mut f);
                });
            }
        }
    }

    proptest! {
        /// Forward, weight and input gradient, bit for bit against the
        /// im2col lowering they replaced, and `im2col` against its serial
        /// oracle, at every kernel width 1..=5,
        /// stride 1..=3 and padding 0..=2: planes down to 1×1, odd sides,
        /// one and several output channels, batches deep enough that the
        /// weight gradient splits its reduction over the pool. Destinations
        /// start NaN, so an element a kernel does not write fails; the
        /// operands are random, so a sum taken in another order fails.
        #[test]
        fn kernels_equal_the_im2col_lowering(
            n in prop_oneof![Just(1usize), 2usize..4, Just(24usize)],
            c in prop_oneof![Just(1usize), 2usize..5],
            oc in prop_oneof![Just(1usize), 2usize..9, Just(17usize)],
            dh in prop_oneof![Just(0usize), 1usize..13],
            dw in prop_oneof![Just(0usize), 1usize..13],
            data in vec(-2f32..2.0, 997..998),
        ) {
            let val = |k: usize, i: usize| data[(i * 7 + k * 13) % data.len()];
            let geoms = (1..=5usize).flat_map(|k| (1..=3).flat_map(move |s| (0..=2).map(move |p| (k, s, p))));
            for (k, stride, pad) in geoms {
                // The smallest side the padded kernel fits, 1 at least.
                let side = |d: usize| k.saturating_sub(2 * pad).max(1) + d;
                let g = Conv2dGeom { c, h: side(dh), w: side(dw), kh: k, kw: k, stride, pad };
                let x: Vec<f32> = (0..n * c * g.h * g.w).map(|i| val(0, i)).collect();
                let w: Vec<f32> = (0..oc * c * k * k).map(|i| val(1, i)).collect();
                let up: Vec<f32> = (0..n * oc * g.oh() * g.ow()).map(|i| val(2, i)).collect();
                assert_kernels_equal_lowering(&x, &w, &up, n, oc, &g);
                assert_im2col_equals_oracle(&x, n, &g);
            }
        }

        /// `⟨conv(x, w), up⟩ = ⟨x, dx(up, w)⟩ = ⟨w, dw(x, up)⟩`: the two
        /// gradients are the forward's adjoints.
        #[test]
        fn gradients_are_the_forward_adjoints(
            h in 3usize..8, w in 3usize..8, k in 1usize..4,
            stride in 1usize..3, pad in 0usize..2,
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let (n, oc) = (2, 3);
            let g = Conv2dGeom { c: 2, h, w, kh: k, kw: k, stride, pad };
            let x: Vec<f32> = (0..n * 2 * h * w).map(|v| ((v * 31 % 13) as f32) - 6.0).collect();
            let wt: Vec<f32> = (0..oc * 2 * k * k).map(|v| ((v * 5 % 7) as f32) - 3.0).collect();
            let up: Vec<f32> = (0..n * oc * g.oh() * g.ow()).map(|v| ((v * 7 % 19) as f32) - 9.0).collect();
            let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(&a, &b)| a as f64 * b as f64).sum::<f64>();
            let mut y = vec![0.0; up.len()];
            conv2d_into(&x, &wt, n, oc, &g, &mut y);
            let mut dx = vec![0.0; x.len()];
            conv2d_grad_x_into(&up, &wt, n, oc, &g, &mut dx);
            let mut dwt = vec![0.0; wt.len()];
            conv2d_grad_w_into(&x, &up, n, oc, &g, &mut dwt);
            let lhs = dot(&y, &up);
            prop_assert!((lhs - dot(&x, &dx)).abs() < 1e-3 * (1.0 + lhs.abs()));
            prop_assert!((lhs - dot(&wt, &dwt)).abs() < 1e-3 * (1.0 + lhs.abs()));
        }
    }

    #[test]
    fn kernels_equal_the_lowering_on_every_tier_and_panel_mode() {
        // `(n, c, h, w, k, stride, pad, oc)`, each run on every tier this
        // CPU has, in f32 and bf16, on 1, 2 and 4 lanes, into NaN-poisoned
        // outputs. The forward reads its image copy in place, so the list
        // is where that copy has edges: output widths 1, 7, 8, 9, 15, 16,
        // 17 and 33 (below, at and past both tile widths, 8 and 16),
        // `oh·ow` off both tile grids, taps crossing two and three KC
        // blocks (c = 29 and 60), 1, 9 and 17 output channels; then the
        // benchmark's training shapes, cut to a few images (a 3×3 stem,
        // a stride-2 3×3 and 1×1 projection, and a conv whose taps, 288,
        // and weight-gradient reduction, over 4 · 64 pixels, both cross a
        // KC block); and a 32×32 request through the served network's
        // strides, its 1×1 stride-2 projections included. Then where the
        // backward has edges: 260 output channels, so that the input
        // gradient's sum over them crosses a KC block; 5×7 maps at n = 9,
        // so that the weight gradient's second 256-pixel block starts
        // mid-image and mid-row, and 4×4 maps at n = 20, whose blocks take
        // 16 images and then 4; a stride-2 3×3 on an odd side; and 8 output
        // channels (the narrower tile on an AVX-512 host) beside 24.
        let cases = [
            (3, 2, 3, 1, 3, 1, 1, 9),
            (2, 3, 5, 7, 3, 1, 1, 9),
            (2, 2, 8, 8, 3, 1, 1, 17),
            (3, 3, 4, 9, 3, 1, 1, 1),
            (2, 2, 3, 15, 3, 1, 1, 9),
            (2, 2, 5, 16, 3, 1, 1, 9),
            (2, 2, 3, 17, 3, 1, 1, 17),
            (2, 1, 3, 33, 3, 1, 1, 9),
            (2, 3, 9, 9, 3, 2, 1, 9),
            (2, 2, 17, 17, 5, 3, 2, 9),
            (2, 29, 5, 5, 3, 1, 1, 9),
            (2, 60, 4, 6, 3, 1, 1, 17),
            (4, 3, 16, 16, 3, 1, 1, 8),
            (4, 8, 16, 16, 3, 2, 1, 16),
            (4, 8, 16, 16, 1, 2, 0, 16),
            (4, 32, 8, 8, 3, 1, 1, 16),
            (2, 3, 32, 32, 3, 1, 1, 8),
            (2, 8, 32, 32, 3, 1, 1, 8),
            (2, 8, 32, 32, 3, 2, 1, 16),
            (2, 8, 32, 32, 1, 2, 0, 16),
            (2, 16, 16, 16, 3, 1, 1, 16),
            (2, 16, 16, 16, 3, 2, 1, 32),
            (2, 16, 16, 16, 1, 2, 0, 32),
            (2, 32, 8, 8, 3, 1, 1, 32),
            (2, 2, 5, 5, 3, 1, 1, 260),
            (9, 3, 5, 7, 3, 1, 1, 9),
            (20, 4, 4, 4, 3, 1, 1, 17),
            (3, 5, 11, 11, 3, 2, 1, 12),
            (2, 6, 7, 7, 3, 1, 1, 8),
            (2, 6, 7, 7, 3, 1, 1, 24),
        ];
        for (n, c, h, w, k, stride, pad, oc) in cases {
            let g = Conv2dGeom { c, h, w, kh: k, kw: k, stride, pad };
            let x: Vec<f32> =
                (0..n * c * h * w).map(|i| ((i * 37 % 101) as f32) / 50.0 - 1.0).collect();
            let wt: Vec<f32> =
                (0..oc * c * k * k).map(|i| ((i * 13 % 29) as f32) / 14.0 - 1.0).collect();
            let up: Vec<f32> = (0..n * oc * g.oh() * g.ow())
                .map(|i| ((i * 17 % 31) as f32) / 15.0 - 1.0)
                .collect();
            for_each_mode(|| assert_kernels_equal_lowering(&x, &wt, &up, n, oc, &g));
        }
    }

    #[test]
    fn weight_gradient_splits_over_waves_of_k_blocks() {
        // A reduction long enough (16 KC blocks) that the partial products
        // do not fit one wave of slots: the slots are reused, and the sum
        // must still run in block order.
        let (n, oc) = (4, 32);
        let g = geom(64, 32, 32, 3, 1, 1);
        assert!(n * g.oh() * g.ow() > 8 * KC);
        let x: Vec<f32> =
            (0..n * 64 * 32 * 32).map(|i| ((i * 37 % 101) as f32) / 50.0 - 1.0).collect();
        let w: Vec<f32> = (0..oc * 64 * 9).map(|i| ((i * 13 % 29) as f32) / 14.0 - 1.0).collect();
        let up: Vec<f32> =
            (0..n * oc * 32 * 32).map(|i| ((i * 17 % 31) as f32) / 15.0 - 1.0).collect();
        assert_kernels_equal_lowering(&x, &w, &up, n, oc, &g);
    }

    #[test]
    fn im2col_equals_its_serial_oracle() {
        // The last two have more taps (288, 300) than one pass of
        // `pack_taps` tables, so a pass starts partway through a row.
        let cases = [
            (3, geom(2, 7, 5, 3, 2, 1)),
            (24, geom(3, 16, 16, 3, 1, 1)),
            (2, geom(4, 6, 6, 5, 1, 2)),
            (2, geom(32, 8, 8, 3, 1, 1)),
            (3, geom(12, 9, 7, 5, 2, 2)),
        ];
        for (n, g) in cases {
            let x: Vec<f32> = (0..n * g.c * g.h * g.w).map(|i| i as f32).collect();
            assert_im2col_equals_oracle(&x, n, &g);
        }
    }

    /// [`im2col`] against [`fill_cols_oracle`], bit for bit, on pools of
    /// 1, 2 and 4 lanes.
    fn assert_im2col_equals_oracle(x: &[f32], n: usize, g: &Conv2dGeom) {
        let mut want = vec![0.0; n * g.oh() * g.ow() * g.c * g.kh * g.kw];
        fill_cols_oracle(x, n, g, &mut want);
        for threads in [1, 2, 4] {
            let pool = Arc::new(ThreadPool::new(threads));
            let got =
                with_pool(&pool, || im2col(&Tensor::from_vec(x.to_vec(), &[n, g.c, g.h, g.w]), g));
            assert_bits(&format!("im2col {g:?} n={n} threads={threads}"), got.as_slice(), &want);
        }
    }
}
