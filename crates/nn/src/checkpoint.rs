//! Model checkpointing: binary serialization of a [`ParamSet`]'s values.
//!
//! ## Format v2 (current, little-endian)
//!
//! ```text
//! magic  b"LGWP"
//! version u16 = 2
//! dtype   u8  (0 = f32; the only dtype today, tagged for forward compat)
//! count   u32
//! per parameter:
//!   name_len u16, name bytes (UTF-8)
//!   ndim u8, dims u32 × ndim
//!   payload_len u64 (bytes; must equal Π dims · 4)
//!   payload (f32 × Π dims)
//! config_len u32, config bytes   (opaque model-config section; 0 = none)
//! crc32 u32   (IEEE, over every preceding byte including the magic)
//! ```
//!
//! Gradients are never persisted (transient state).
//!
//! Restores are **all-or-nothing**: the stream is parsed and validated
//! into scratch storage first and committed to the [`ParamSet`] only once
//! everything checked out, so a truncated or corrupt blob leaves the
//! store untouched.

use crate::param::ParamSet;
use legw_tensor::Tensor;

const MAGIC: &[u8; 4] = b"LGWP";
const VERSION: u16 = 2;
/// The only payload dtype today. Tagged in the header so a future
/// reduced-precision artifact can be detected instead of misread.
const DTYPE_F32: u8 = 0;
/// Bytes of the smallest parameter record: `name_len`, an empty name,
/// `ndim`, one dim, `payload_len`, an empty payload.
const MIN_PARAM_RECORD: usize = 2 + 1 + 4 + 8;

/// Why a checkpoint failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the `LGWP` magic.
    NotACheckpoint,
    /// The version tag is one this build cannot parse.
    UnsupportedVersion(u16),
    /// The dtype tag is one this build cannot parse.
    UnsupportedDtype(u8),
    /// The stream ended inside the named field.
    Truncated(&'static str),
    /// The trailing CRC32 does not match the stream contents.
    CrcMismatch { stored: u32, computed: u32 },
    /// Parameter count differs between checkpoint and store.
    CountMismatch { checkpoint: usize, store: usize },
    /// Parameter `index` is named differently in checkpoint and store.
    NameMismatch { index: usize, checkpoint: String, store: String },
    /// The named parameter has a different shape in checkpoint and store.
    ShapeMismatch { name: String, checkpoint: Vec<usize>, store: Vec<usize> },
    /// A structurally invalid field (bad ndim, payload length ≠ shape…).
    BadField { what: &'static str, name: String },
    /// A parameter name that is not UTF-8.
    NonUtf8Name,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotACheckpoint => write!(f, "not a LGWP checkpoint"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::UnsupportedDtype(d) => write!(f, "unsupported checkpoint dtype {d}"),
            Self::Truncated(what) => write!(f, "checkpoint truncated in {what}"),
            Self::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            Self::CountMismatch { checkpoint, store } => {
                write!(f, "checkpoint has {checkpoint} params, store has {store}")
            }
            Self::NameMismatch { index, checkpoint, store } => {
                write!(
                    f,
                    "parameter {index} name mismatch: checkpoint {checkpoint:?}, store {store:?}"
                )
            }
            Self::ShapeMismatch { name, checkpoint, store } => {
                write!(
                    f,
                    "parameter {name} shape mismatch: checkpoint {checkpoint:?}, store {store:?}"
                )
            }
            Self::BadField { what, name } => write!(f, "bad {what} for {name}"),
            Self::NonUtf8Name => write!(f, "non-UTF8 parameter name"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---------------------------------------------------------------- crc32

/// IEEE CRC-32 (reflected 0xEDB88320) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = crc;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------- save

/// CRC-tracking writer into a `Vec<u8>`.
struct Writer {
    out: Vec<u8>,
    crc: u32,
}

impl Writer {
    fn with_capacity(n: usize) -> Self {
        Self { out: Vec::with_capacity(n), crc: 0xFFFF_FFFF }
    }
    fn slice(&mut self, s: &[u8]) {
        self.out.extend_from_slice(s);
        self.crc = crc32_update(self.crc, s);
    }
    fn u8(&mut self, v: u8) {
        self.slice(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.slice(&v.to_le_bytes());
    }
    /// Appends the CRC of everything written and hands the blob back.
    fn finish(mut self) -> Vec<u8> {
        let crc = !self.crc;
        self.out.extend_from_slice(&crc.to_le_bytes());
        self.out
    }
}

/// Serializes all parameter values (not gradients) in the v2 format with
/// no config section.
pub fn save(ps: &ParamSet) -> Vec<u8> {
    save_with_config(ps, None)
}

/// [`save`] plus an opaque model-config section (the freeze path stores
/// the model hyperparameters there so a server can rebuild the model).
pub fn save_with_config(ps: &ParamSet, config: Option<&[u8]>) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + ps.num_scalars() * 4);
    w.slice(MAGIC);
    w.u16(VERSION);
    w.u8(DTYPE_F32);
    w.u32(ps.len() as u32);
    let mut payload: Vec<u8> = Vec::new();
    for (_, p) in ps.iter() {
        let name = p.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "parameter name too long");
        w.u16(name.len() as u16);
        w.slice(name);
        let dims = p.value.shape();
        w.u8(dims.len() as u8);
        for &d in dims {
            w.u32(d as u32);
        }
        let vals = p.value.as_slice();
        w.u64(vals.len() as u64 * 4);
        payload.clear();
        payload.reserve(vals.len() * 4);
        for &v in vals {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        w.slice(&payload);
    }
    let config = config.unwrap_or(&[]);
    assert!(config.len() <= u32::MAX as usize, "config section too long");
    w.u32(config.len() as u32);
    w.slice(config);
    w.finish()
}

// ---------------------------------------------------------------- load

/// CRC-tracking cursor over the blob. Every read is bounded by the bytes
/// that are left, so no length field can make it read or allocate past them.
struct Reader<'a> {
    src: &'a [u8],
    crc: u32,
}

impl<'a> Reader<'a> {
    fn new(src: &'a [u8]) -> Self {
        Self { src, crc: 0xFFFF_FFFF }
    }
    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.src.len() < n {
            return Err(CheckpointError::Truncated(what));
        }
        let (head, rest) = self.src.split_at(n);
        self.src = rest;
        self.crc = crc32_update(self.crc, head);
        Ok(head)
    }
    fn fixed<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CheckpointError> {
        Ok(self.bytes(N, what)?.try_into().expect("bytes(N) is N long"))
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.fixed::<1>(what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.fixed(what)?))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.fixed(what)?))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.fixed(what)?))
    }
}

/// One parameter parsed out of the stream, not yet committed.
type Staged = (String, Vec<usize>, Vec<f32>);

fn parse_param(r: &mut Reader<'_>) -> Result<Staged, CheckpointError> {
    let name_len = r.u16("name length")? as usize;
    let name = std::str::from_utf8(r.bytes(name_len, "name")?)
        .map_err(|_| CheckpointError::NonUtf8Name)?
        .to_owned();
    let ndim = r.u8("ndim")? as usize;
    if ndim == 0 || ndim > 4 {
        return Err(CheckpointError::BadField { what: "ndim", name });
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dims.push(r.u32("dims")? as usize);
    }
    // The dims come from the blob: four u32s can overflow `usize`.
    let payload_bytes = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .and_then(|numel| numel.checked_mul(4));
    let Some(payload_bytes) = payload_bytes else {
        return Err(CheckpointError::BadField { what: "dims", name });
    };
    if r.u64("payload length")? != payload_bytes as u64 {
        return Err(CheckpointError::BadField { what: "payload length", name });
    }
    let raw = r.bytes(payload_bytes, "payload")?;
    let vals: Vec<f32> =
        raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    Ok((name, dims, vals))
}

/// Parses and fully validates a checkpoint stream without touching any
/// `ParamSet`. Returns the staged parameters and the config section, if
/// present.
fn parse(blob: &[u8]) -> Result<(Vec<Staged>, Option<Vec<u8>>), CheckpointError> {
    let mut r = Reader::new(blob);
    let magic = r.fixed::<4>("magic")?;
    if &magic != MAGIC {
        return Err(CheckpointError::NotACheckpoint);
    }
    let version = r.u16("version")?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let dtype = r.u8("dtype")?;
    if dtype != DTYPE_F32 {
        return Err(CheckpointError::UnsupportedDtype(dtype));
    }
    let count = r.u32("count")? as usize;
    // `count` comes from the blob: reserve no more than the bytes that are
    // actually there could hold.
    let mut staged = Vec::with_capacity(count.min(r.src.len() / MIN_PARAM_RECORD));
    for _ in 0..count {
        staged.push(parse_param(&mut r)?);
    }
    let config_len = r.u32("config length")? as usize;
    let config = if config_len == 0 { None } else { Some(r.bytes(config_len, "config")?.to_vec()) };
    // The CRC field is not part of what it sums: take the sum before reading it.
    let computed = !r.crc;
    let stored = r.u32("crc")?;
    if stored != computed {
        return Err(CheckpointError::CrcMismatch { stored, computed });
    }
    Ok((staged, config))
}

/// Validates the staged parameters against the store, then commits. Called
/// only after [`parse`] succeeded, so the store is never half-written.
fn commit(ps: &mut ParamSet, staged: Vec<Staged>) -> Result<(), CheckpointError> {
    if staged.len() != ps.len() {
        return Err(CheckpointError::CountMismatch { checkpoint: staged.len(), store: ps.len() });
    }
    for (i, ((_, p), (name, dims, _))) in ps.iter().zip(staged.iter()).enumerate() {
        if p.name != *name {
            return Err(CheckpointError::NameMismatch {
                index: i,
                checkpoint: name.clone(),
                store: p.name.clone(),
            });
        }
        if p.value.shape() != dims.as_slice() {
            return Err(CheckpointError::ShapeMismatch {
                name: name.clone(),
                checkpoint: dims.clone(),
                store: p.value.shape().to_vec(),
            });
        }
    }
    for ((_, p), (_, dims, vals)) in ps.iter_mut().zip(staged) {
        p.value = Tensor::from_vec(vals, &dims);
    }
    Ok(())
}

/// Restores parameter values into an existing, structurally identical
/// [`ParamSet`] (names and shapes must match in order — the normal flow is
/// to rebuild the model from its constructor, then load).
///
/// # Errors
/// On any mismatch, truncation or corruption the store is left untouched.
pub fn load(ps: &mut ParamSet, buf: &[u8]) -> Result<(), CheckpointError> {
    let (staged, _config) = parse(buf)?;
    commit(ps, staged)
}

/// Fully validates a blob (structure and CRC) and returns its config
/// section without needing a [`ParamSet`] — the restore path reads this
/// first to learn which model to construct.
pub fn read_config(buf: &[u8]) -> Result<Option<Vec<u8>>, CheckpointError> {
    let (_, config) = parse(buf)?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamSet {
        let mut ps = ParamSet::new();
        ps.add("layer.w", Tensor::from_vec((0..6).map(|x| x as f32 * 0.5).collect(), &[2, 3]));
        ps.add("layer.b", Tensor::from_vec(vec![1.0, -1.0, 0.25], &[3]));
        ps
    }

    fn scrambled() -> ParamSet {
        let mut ps = store();
        for (_, p) in ps.iter_mut() {
            p.value.fill_(9.0);
        }
        ps
    }

    fn assert_matches(a: &ParamSet, b: &ParamSet) {
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.value.as_slice(), y.value.as_slice());
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let ps = store();
        let blob = save(&ps);
        let mut fresh = scrambled();
        load(&mut fresh, &blob).unwrap();
        assert_matches(&ps, &fresh);
    }

    #[test]
    fn config_section_roundtrips() {
        let ps = store();
        let blob = save_with_config(&ps, Some(b"model-config"));
        assert_eq!(read_config(&blob).unwrap().as_deref(), Some(&b"model-config"[..]));
        let mut fresh = scrambled();
        load(&mut fresh, &blob).unwrap();
        assert_matches(&ps, &fresh);
        // no config → None, not Some(empty)
        assert_eq!(read_config(&save(&ps)).unwrap(), None);
    }

    #[test]
    fn rejects_wrong_structure() {
        let ps = store();
        let blob = save(&ps);
        let mut other = ParamSet::new();
        other.add("layer.w", Tensor::zeros(&[2, 3]));
        assert!(matches!(
            load(&mut other, &blob),
            Err(CheckpointError::CountMismatch { checkpoint: 2, store: 1 })
        ));

        let mut renamed = ParamSet::new();
        renamed.add("x.w", Tensor::zeros(&[2, 3]));
        renamed.add("layer.b", Tensor::zeros(&[3]));
        assert!(matches!(
            load(&mut renamed, &blob),
            Err(CheckpointError::NameMismatch { index: 0, .. })
        ));

        let mut reshaped = ParamSet::new();
        reshaped.add("layer.w", Tensor::zeros(&[3, 2]));
        reshaped.add("layer.b", Tensor::zeros(&[3]));
        assert!(matches!(load(&mut reshaped, &blob), Err(CheckpointError::ShapeMismatch { .. })));
    }

    #[test]
    fn rejects_garbage_truncation_and_corruption() {
        let mut ps = store();
        assert_eq!(load(&mut ps, b"jk"), Err(CheckpointError::Truncated("magic")));
        assert_eq!(load(&mut ps, b"junk"), Err(CheckpointError::NotACheckpoint));
        let blob = save(&ps);
        assert!(matches!(
            load(&mut ps, &blob[..blob.len() - 5]),
            Err(CheckpointError::Truncated(_))
        ));
        // flip one payload bit → CRC catches it
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(load(&mut ps, &bad), Err(CheckpointError::CrcMismatch { .. })));
        // unknown version, and the retired v1 layout
        for v in [9u8, 1] {
            let mut wrong_ver = blob.clone();
            wrong_ver[4] = v;
            assert_eq!(
                load(&mut ps, &wrong_ver),
                Err(CheckpointError::UnsupportedVersion(v as u16))
            );
        }
    }

    /// Header fields must not drive allocation or unchecked arithmetic: a
    /// few hostile bytes get a typed error, not an abort or a panic.
    #[test]
    fn hostile_header_fields_yield_typed_errors() {
        let mut ps = store();
        let header = |count: u32| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&VERSION.to_le_bytes());
            b.push(DTYPE_F32);
            b.extend_from_slice(&count.to_le_bytes());
            b
        };
        // count = u32::MAX with nothing behind it
        assert_eq!(
            load(&mut ps, &header(u32::MAX)),
            Err(CheckpointError::Truncated("name length"))
        );

        // one parameter record named "w", up to its payload
        let param = |dims: &[u32], payload_len: u64| {
            let mut b = header(1);
            b.extend_from_slice(&1u16.to_le_bytes());
            b.push(b'w');
            b.push(dims.len() as u8);
            for d in dims {
                b.extend_from_slice(&d.to_le_bytes());
            }
            b.extend_from_slice(&payload_len.to_le_bytes());
            b
        };
        // four dims whose product overflows usize
        assert_eq!(
            load(&mut ps, &param(&[u32::MAX; 4], u64::MAX)),
            Err(CheckpointError::BadField { what: "dims", name: "w".into() })
        );
        // dims that multiply fine but promise far more payload than exists
        let blob = param(&[1 << 16, 1 << 16], 1 << 34);
        assert_eq!(load(&mut ps, &blob), Err(CheckpointError::Truncated("payload")));
    }

    #[test]
    fn failed_load_leaves_store_untouched() {
        let ps = store();
        let blob = save(&ps);

        // Truncate inside the SECOND parameter's payload: the first
        // parameter parses cleanly, and before the all-or-nothing fix its
        // value would already have been committed.
        let mut fresh = scrambled();
        let before: Vec<Vec<f32>> =
            fresh.iter().map(|(_, p)| p.value.as_slice().to_vec()).collect();
        assert!(load(&mut fresh, &blob[..blob.len() - 9]).is_err());
        for ((_, p), want) in fresh.iter().zip(&before) {
            assert_eq!(p.value.as_slice(), &want[..], "store mutated by failed load");
        }

        // And for a structural mismatch detected after a clean parse.
        let mut renamed = ParamSet::new();
        renamed.add("x.w", Tensor::from_vec(vec![7.0; 6], &[2, 3]));
        renamed.add("layer.b", Tensor::from_vec(vec![7.0; 3], &[3]));
        assert!(load(&mut renamed, &blob).is_err());
        for (_, p) in renamed.iter() {
            assert!(p.value.as_slice().iter().all(|&v| v == 7.0));
        }
    }

    #[test]
    fn checkpoint_through_a_real_model() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let _ = crate::Linear::new(&mut ps, &mut rng, "fc", 4, 2, true);
        let blob = save(&ps);

        let mut rng2 = StdRng::seed_from_u64(99); // different init
        let mut ps2 = ParamSet::new();
        let _ = crate::Linear::new(&mut ps2, &mut rng2, "fc", 4, 2, true);
        assert_ne!(
            ps.iter().next().unwrap().1.value.as_slice(),
            ps2.iter().next().unwrap().1.value.as_slice()
        );
        load(&mut ps2, &blob).unwrap();
        assert_eq!(
            ps.iter().next().unwrap().1.value.as_slice(),
            ps2.iter().next().unwrap().1.value.as_slice()
        );
    }
}
