//! The kernel table: the one form shared by tape nodes and plan instructions.
//!
//! Every operation — a forward op, a gradient contribution, an accumulating
//! GEMM — is an [`Entry`]: a name, a body over slices, and what a compiler
//! needs to know about it (its backward rule, its scratch, the feed it
//! reads, the operand a weight panel may stand for). Entries are `static`s
//! beside their ops in `ops_*.rs`; a node or instruction holds a reference
//! to one plus its operands and its [`Attr`] constants.
//!
//! A body sees its operands through [`Io`]: sources by position, up to three
//! destinations with their [`Mode`], the op's [`State`], and scratch. The
//! tape builds an `Io` over node values and fresh pooled buffers, the plan
//! interpreter over arena slots; the body cannot tell them apart, which is
//! what makes a replay bitwise equal to the tape.

use crate::graph::{Graph, Ins, Node, Var};
use crate::opk::Mode;
use crate::plan::{Arena, Loc};
use legw_tensor::{gemm_into, gemm_into_packed, Conv2dGeom, Tensor};

/// A kernel's constants, laid out per kernel: dims, offsets and flags in
/// `n`, and one scalar.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Attr {
    pub n: [usize; 5],
    pub s: f32,
}

impl Attr {
    pub(crate) fn n(n: &[usize]) -> Attr {
        let mut a = Attr::default();
        a.n[..n.len()].copy_from_slice(n);
        a
    }

    pub(crate) fn s(s: f32) -> Attr {
        Attr { s, ..Attr::default() }
    }
}

/// A flag word: bit `i` set where `bits[i]` holds.
pub(crate) fn flags(bits: &[bool]) -> usize {
    bits.iter().enumerate().map(|(i, &b)| usize::from(b) << i).sum()
}

/// An op's data between its forward and its backward, owned by the tape
/// node that recorded the op and re-created, sized alike, in a plan.
#[derive(Default)]
pub(crate) struct State {
    /// The length of one f32 buffer, which a body sees as [`Io::buf`]:
    /// cross-entropy probabilities; BatchNorm's `x̂`; an LSTM cell's gates,
    /// then `tanh(c')`. The forward body writes all of it before reading
    /// any, and only the op's backward reads what it wrote.
    pub buf_len: usize,
    /// That buffer on an eager tape, pooled, from the op's forward on; a
    /// plan keeps its buffers itself and leaves this `None`.
    pub buf: Option<Tensor>,
    /// Embedding ids or cross-entropy labels — a per-replay feed.
    pub ids: Vec<usize>,
    /// A dropout mask — a per-replay feed.
    pub mask: Option<Tensor>,
    /// Max pooling's chosen input indices.
    pub argmax: Vec<u32>,
    /// Cross-entropy rows not labelled `IGNORE_INDEX`.
    pub active: usize,
    /// BatchNorm's per-channel statistics.
    pub bn: Option<Box<BnStats>>,
    /// A convolution's geometry, all the state a convolution keeps.
    pub geom: Option<Box<Conv2dGeom>>,
}

/// BatchNorm's f64 accumulators and the f32 batch statistics it exposes.
#[derive(Default)]
pub(crate) struct BnStats {
    pub mean: Vec<f64>,
    pub var: Vec<f64>,
    pub sum_up: Vec<f64>,
    pub sum_up_xh: Vec<f64>,
    pub inv_std: Vec<f32>,
    pub mean_f32: Vec<f32>,
    pub var_f32: Vec<f32>,
}

impl BnStats {
    /// Statistics for `c` channels.
    pub(crate) fn zeros(c: usize) -> Box<BnStats> {
        let (d, f) = (vec![0.0; c], vec![0.0; c]);
        Box::new(BnStats {
            mean: d.clone(),
            var: d.clone(),
            sum_up: d.clone(),
            sum_up_xh: d,
            inv_std: f.clone(),
            mean_f32: f.clone(),
            var_f32: f,
        })
    }
}

impl State {
    pub(crate) fn buf(len: usize) -> State {
        State { buf_len: len, ..State::default() }
    }

    /// A BatchNorm op's batch statistics `(mean, var)` from its last
    /// forward.
    pub(crate) fn bn_batch_stats(&self) -> (&[f32], &[f32]) {
        let b = self.bn.as_deref().expect("batch norm statistics");
        (&b.mean_f32, &b.var_f32)
    }

    /// The same state, zeroed, for a plan: feeds kept as the values a
    /// replay reuses when it is fed none, and no buffer.
    pub(crate) fn fresh(&self) -> State {
        State {
            buf_len: self.buf_len,
            buf: None,
            ids: self.ids.clone(),
            mask: self.mask.clone(),
            argmax: vec![0; self.argmax.len()],
            active: 0,
            bn: self.bn.as_ref().map(|b| BnStats::zeros(b.mean.len())),
            geom: self.geom.clone(),
        }
    }
}

/// Zeros of shape `dims` for a buffer a plan keeps: allocated exactly,
/// not taken from the pool, which may hand out twice the size.
pub(crate) fn kept_zeros(dims: &[usize]) -> Tensor {
    Tensor::from_vec(vec![0.0; dims.iter().product()], dims)
}

/// Where a body's sources live: tape node values, or plan locations.
#[derive(Clone, Copy)]
pub(crate) enum Srcs<'a> {
    Tape(&'a [Node], &'a [Var]),
    Plan(&'a Arena, &'a [Loc], &'a [&'a Tensor], &'a [&'a Tensor]),
}

impl<'a> Srcs<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Srcs::Tape(_, s) => s.len(),
            Srcs::Plan(_, s, ..) => s.len(),
        }
    }

    /// Source `i`.
    pub(crate) fn get(&self, i: usize) -> &'a [f32] {
        match *self {
            Srcs::Tape(nodes, s) => nodes[s[i].0].value.as_ref().expect("eager").as_slice(),
            Srcs::Plan(arena, s, inputs, params) => arena.read(s[i], inputs, params),
        }
    }

    /// `out (+)= op(a) · op(src b)` — the one GEMM every body issues. A plan
    /// may hold source `b` as a weight panel packed this replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm(
        &self,
        ta: bool,
        tb: bool,
        a: &[f32],
        b: usize,
        [m, k, n]: [usize; 3],
        out: &mut [f32],
        acc: bool,
    ) {
        if let Srcs::Plan(arena, s, ..) = *self {
            if let Loc::Panel(p) = s[b] {
                return gemm_into_packed(ta, a, arena.panel(p, tb), m, out, acc);
            }
        }
        gemm_into(ta, tb, a, self.get(b), m, k, n, out, acc)
    }
}

/// Everything a body reads and writes.
pub(crate) struct Io<'a> {
    pub a: &'a Attr,
    pub src: Srcs<'a>,
    pub out: [&'a mut [f32]; 3],
    pub mode: [Mode; 3],
    pub st: Option<&'a mut State>,
    /// The op's buffer ([`State::buf`]), exactly as long as the tape made
    /// it; empty for an op without one.
    pub buf: &'a mut [f32],
    /// f32 scratch for add-mode detours ([`Detour`]).
    pub scratch: &'a mut [f32],
    /// f64 accumulators.
    pub acc: &'a mut [f64],
}

/// The scratch a body takes for its add-mode destinations.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detour {
    None,
    /// Each add-mode output is computed whole into f32 scratch, then added.
    Each,
    /// All outputs go to scratch together unless every one is a store.
    Joint,
    /// f64 accumulators as long as the output.
    F64,
}

/// The per-replay feed or statistic a kernel's state carries.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    None,
    Ids,
    Labels,
    Mask,
    Bn,
}

/// An op's one backward rule: given the node and the gradients of its
/// outputs (absent where none flowed), append the nodes that contribute to
/// its sources' gradients.
pub(crate) type Rule = fn(&mut Graph, &Ins, &[Option<Var>]);

/// A source a GEMM reads as its B operand: `(source, transposed, k, n)` of
/// a `[·, k] × [k, n]` product.
pub(crate) type PanelUse = Option<(usize, bool, usize, usize)>;

/// One kernel.
pub(crate) struct Entry {
    pub name: &'static str,
    pub run: fn(&mut Io),
    pub grad: Option<Rule>,
    pub detour: Detour,
    pub role: Role,
    pub panel: fn(&Attr) -> PanelUse,
}

impl Entry {
    pub(crate) const fn new(name: &'static str, run: fn(&mut Io)) -> Entry {
        Entry { name, run, grad: None, detour: Detour::None, role: Role::None, panel: |_| None }
    }

    pub(crate) const fn grad(self, grad: Rule) -> Entry {
        Entry { grad: Some(grad), ..self }
    }

    pub(crate) const fn detour(self, detour: Detour) -> Entry {
        Entry { detour, ..self }
    }

    pub(crate) const fn role(self, role: Role) -> Entry {
        Entry { role, ..self }
    }

    pub(crate) const fn panel(self, panel: fn(&Attr) -> PanelUse) -> Entry {
        Entry { panel, ..self }
    }

    /// `(f32, f64)` scratch elements for outputs of these modes and sizes.
    /// A plan sizes its shared scratch as the maximum over its program.
    pub(crate) fn scratch(&self, mode: &[Mode], len: &[usize]) -> (usize, usize) {
        let add = || mode.iter().zip(len).filter(|(m, _)| **m == Mode::Add).map(|(_, &l)| l);
        match self.detour {
            Detour::Each => (add().max().unwrap_or(0), 0),
            Detour::Joint if add().next().is_some() => (len.iter().sum(), 0),
            Detour::F64 => (0, len[0]),
            _ => (0, 0),
        }
    }

    pub(crate) fn is(&'static self, other: &'static Entry) -> bool {
        std::ptr::eq(self, other)
    }
}
