//! On-disk dataset format (`aide-view/1`).
//!
//! Bench-scale datasets (10M+ rows) take longer to generate than to
//! explore; this module persists a [`NumericView`] so a dataset is
//! generated once and streamed back on every later run.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! magic       12 bytes   b"aide-view/1\n"
//! dims        u32
//! n           u64        number of rows
//! per dim (dims times):
//!   name_len  u16
//!   name      name_len bytes of UTF-8 (the attribute name)
//!   lo        u64        f64 bit pattern of the raw domain's lower bound
//!   hi        u64        f64 bit pattern of the raw domain's upper bound
//! lanes       dims × n × u64   f64 bit patterns, lane-major — the
//!                              in-memory column layout, written as-is
//! row_ids     n × u32
//! ```
//!
//! Row ids `0..n` are written like any others, but the loader keeps no
//! lane for them ([`NumericView::stored_row_ids`] is `None`): it tells
//! the identity apart chunk by chunk while decoding, and allocates the
//! lane only at the first chunk that breaks it.
//!
//! Coordinates round-trip through `f64::to_bits`/`from_bits`, so a loaded
//! view is **bit-identical** to the one written — the determinism
//! fingerprints of a session replayed from disk match an in-memory run.
//! Reads and writes stream through fixed-size chunks
//! ([`IO_CHUNK_VALUES`] values at a time), so loading never materializes
//! an intermediate buffer proportional to the dataset.
//!
//! Malformed files — wrong magic, truncated lanes, non-finite or inverted
//! domain bounds, lane values outside `[0, 100]`, trailing garbage — are
//! rejected with [`DataError::Format`] naming the offending field.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::{DataError, Result};
use crate::view::{Domain, NumericView, SpaceMapper};

/// File magic; the trailing newline keeps accidental text files out.
pub const MAGIC: &[u8; 12] = b"aide-view/1\n";

/// Dimensionality cap: a header claiming more lanes than this is garbage,
/// not a dataset (the paper explores ≤ 5-D; benches go to a handful).
const MAX_DIMS: u32 = 1 << 10;

/// Attribute-name length cap (bytes).
const MAX_NAME_LEN: u16 = 1 << 12;

/// f64/u32 values converted per streaming chunk (512 KiB of f64s).
const IO_CHUNK_VALUES: usize = 1 << 16;

/// Rows reserved up front per lane. The header's row count is untrusted
/// until the bytes arrive, so a larger claim grows the lanes only as
/// data is read; datasets up to this size (10M-row benches included)
/// still load with one allocation per lane.
const MAX_RESERVED_ROWS: usize = 1 << 24;

/// Writes `view` to `path` in the `aide-view/1` format.
pub fn write_view(view: &NumericView, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_view_to(view, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Writes `view` to an arbitrary sink in the `aide-view/1` format.
pub fn write_view_to<W: Write>(view: &NumericView, w: &mut W) -> Result<()> {
    let mapper = view.mapper();
    w.write_all(MAGIC)?;
    w.write_all(&(view.dims() as u32).to_le_bytes())?;
    w.write_all(&(view.len() as u64).to_le_bytes())?;
    for (name, domain) in mapper.attrs().iter().zip(mapper.domains()) {
        let bytes = name.as_bytes();
        assert!(
            bytes.len() <= MAX_NAME_LEN as usize,
            "attribute name too long for aide-view/1"
        );
        w.write_all(&(bytes.len() as u16).to_le_bytes())?;
        w.write_all(bytes)?;
        w.write_all(&domain.lo().to_bits().to_le_bytes())?;
        w.write_all(&domain.hi().to_bits().to_le_bytes())?;
    }
    let mut buf = Vec::with_capacity(IO_CHUNK_VALUES * 8);
    for d in 0..view.dims() {
        for chunk in view.lane(d).chunks(IO_CHUNK_VALUES) {
            buf.clear();
            for &v in chunk {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            w.write_all(&buf)?;
        }
    }
    let n = view.len();
    for start in (0..n).step_by(IO_CHUNK_VALUES) {
        buf.clear();
        for i in start..(start + IO_CHUNK_VALUES).min(n) {
            buf.extend_from_slice(&view.row_id(i).to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Loads an `aide-view/1` file written by [`write_view`].
pub fn load_view(path: &Path) -> Result<NumericView> {
    load_view_from(&mut BufReader::new(File::open(path)?))
}

/// Loads an `aide-view/1` stream. Rejects malformed input with
/// [`DataError::Format`]; the source must end exactly after the row ids.
pub fn load_view_from<R: Read>(r: &mut R) -> Result<NumericView> {
    let mut magic = [0u8; 12];
    fill(r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic {:?}, want {:?}",
            String::from_utf8_lossy(&magic),
            String::from_utf8_lossy(MAGIC),
        )));
    }
    let dims = read_u32(r, "dims")?;
    if dims == 0 || dims > MAX_DIMS {
        return Err(DataError::Format(format!(
            "dims {dims} outside [1, {MAX_DIMS}]"
        )));
    }
    let n = read_u64(r, "row count")?;
    // Row ids are u32, so no valid file holds more rows than that.
    if n > u64::from(u32::MAX) {
        return Err(DataError::Format(format!(
            "row count {n} exceeds the u32 row-id range"
        )));
    }
    let n = n as usize;
    let reserve = n.min(MAX_RESERVED_ROWS);

    let mut attrs = Vec::with_capacity(dims as usize);
    let mut domains = Vec::with_capacity(dims as usize);
    for d in 0..dims {
        let name_len = read_u16(r, "attribute name length")?;
        if name_len > MAX_NAME_LEN {
            return Err(DataError::Format(format!(
                "attribute {d} name length {name_len} exceeds {MAX_NAME_LEN}"
            )));
        }
        let mut name = vec![0u8; name_len as usize];
        fill(r, &mut name, "attribute name")?;
        let name = String::from_utf8(name)
            .map_err(|_| DataError::Format(format!("attribute {d} name is not UTF-8")))?;
        let lo = f64::from_bits(read_u64(r, "domain lower bound")?);
        let hi = f64::from_bits(read_u64(r, "domain upper bound")?);
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(DataError::Format(format!(
                "attribute {name:?} has invalid domain [{lo}, {hi}]"
            )));
        }
        attrs.push(name);
        domains.push(Domain::new(lo, hi));
    }

    // Stream the lanes in fixed-size chunks straight into place.
    let mut buf = vec![0u8; IO_CHUNK_VALUES * 8];
    let mut lanes = Vec::with_capacity(dims as usize);
    for d in 0..dims {
        let mut lane = Vec::with_capacity(reserve);
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(IO_CHUNK_VALUES);
            let bytes = &mut buf[..take * 8];
            fill(r, bytes, &format!("lane {d}"))?;
            let decoded = lane.len();
            lane.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))),
            );
            // Every value must lie in the normalized domain [0, 100]
            // (which also rejects NaN and ±inf): the grid index files an
            // out-of-domain point under an edge cell and its full-cell
            // shortcut would then return it for rectangles it lies
            // outside. Checked per chunk while the chunk is still in
            // cache, with a branch-free fold the compiler vectorizes; the
            // offending row is located only on the error path.
            let outside = |v: &f64| !(0.0..=100.0).contains(v);
            if lane[decoded..]
                .iter()
                .fold(false, |bad, v| bad | outside(v))
            {
                let at = lane[decoded..].iter().position(outside).unwrap();
                return Err(DataError::Format(format!(
                    "lane {d} ({:?}) holds value {} outside [0, 100] at row {}",
                    attrs[d as usize],
                    lane[decoded + at],
                    decoded + at
                )));
            }
            remaining -= take;
        }
        lanes.push(lane);
    }

    // Row ids `0..n` are the common case (every packed projection and
    // generated dataset) and are not stored: the lane is allocated only
    // once a chunk breaks the identity, and then filled with the identity
    // prefix decoded so far.
    let mut row_ids: Option<Vec<u32>> = None;
    let mut decoded = 0;
    while decoded < n {
        let take = (n - decoded).min(IO_CHUNK_VALUES);
        let bytes = &mut buf[..take * 4];
        fill(r, bytes, "row ids")?;
        let chunk = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()));
        match &mut row_ids {
            Some(ids) => ids.extend(chunk),
            None => {
                let identity = chunk
                    .clone()
                    .enumerate()
                    .all(|(k, id)| id as usize == decoded + k);
                if !identity {
                    let mut ids = Vec::with_capacity(reserve);
                    ids.extend(0..decoded as u32);
                    ids.extend(chunk);
                    row_ids = Some(ids);
                }
            }
        }
        decoded += take;
    }

    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(DataError::Format(
            "trailing garbage after row ids".to_owned(),
        ));
    }

    let mapper = SpaceMapper::new(attrs, domains);
    Ok(NumericView::from_parts(mapper, lanes, n, row_ids))
}

/// `read_exact` with truncation reported as a [`DataError::Format`] naming
/// the field being read; other I/O failures pass through as
/// [`DataError::Io`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            DataError::Format(format!("truncated while reading {what}"))
        } else {
            DataError::Io(e)
        }
    })
}

fn read_u16<R: Read>(r: &mut R, what: &str) -> Result<u16> {
    let mut b = [0u8; 2];
    fill(r, &mut b, what)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> Result<u32> {
    let mut b = [0u8; 4];
    fill(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64> {
    let mut b = [0u8; 8];
    fill(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_testkit::prop::gen;
    use aide_testkit::{forall, prop_assert, prop_assert_eq};
    use aide_util::rng::{Rng, Xoshiro256pp};

    fn sample_view(n: usize, dims: usize, seed: u64) -> NumericView {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            (0..dims).map(|d| format!("attr_{d}")).collect(),
            (0..dims)
                .map(|d| Domain::new(-(d as f64) - 0.5, 10.0 * (d + 1) as f64))
                .collect(),
        );
        let lanes = (0..dims)
            .map(|_| (0..n).map(|_| rng.uniform(0.0, 100.0)).collect())
            .collect();
        let row_ids = (0..n as u32).map(|i| i.wrapping_mul(7)).collect();
        NumericView::from_lanes(mapper, lanes, row_ids)
    }

    fn round_trip(view: &NumericView) -> NumericView {
        let mut bytes = Vec::new();
        write_view_to(view, &mut bytes).unwrap();
        load_view_from(&mut bytes.as_slice()).unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        // Sizes straddling the streaming chunk width.
        for (n, dims) in [(0, 1), (5, 3), (IO_CHUNK_VALUES + 17, 2)] {
            let view = sample_view(n, dims, (n + dims) as u64);
            let loaded = round_trip(&view);
            assert_eq!(loaded.len(), view.len());
            assert_eq!(loaded.mapper(), view.mapper());
            assert!(loaded.row_ids().eq(view.row_ids()));
            for d in 0..dims {
                let (a, b) = (view.lane(d), loaded.lane(d));
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "lane {d} drifted"
                );
            }
            assert_eq!(loaded, view);
        }
    }

    #[test]
    fn identity_row_ids_load_without_a_lane() {
        let n = IO_CHUNK_VALUES + 17;
        let lanes = |v: f64| vec![vec![v; n]];
        let mapper = SpaceMapper::new(vec!["x".into()], vec![Domain::new(0.0, 1.0)]);
        let identity = NumericView::from_lanes(mapper.clone(), lanes(1.0), (0..n as u32).collect());
        assert_eq!(identity.stored_row_ids(), None);
        let loaded = round_trip(&identity);
        assert_eq!(loaded.stored_row_ids(), None);
        assert_eq!(loaded, identity);
        // Ids that leave the identity only in the second streaming chunk
        // are stored, identity prefix included.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.swap(IO_CHUNK_VALUES + 3, IO_CHUNK_VALUES + 4);
        let shuffled = NumericView::from_lanes(mapper, lanes(2.0), ids.clone());
        let loaded = round_trip(&shuffled);
        assert_eq!(loaded.stored_row_ids(), Some(&ids[..]));
        assert_eq!(loaded, shuffled);
    }

    forall! {
        /// A view whose ids are `0..n` and stores no lane is the same view
        /// with the lane stored: through every accessor, byte for byte in
        /// the file, and after loading either file.
        fn identity_ids_equal_explicit_ids(
            values in gen::vec_of(gen::f64_in(0.0..100.0), 0..300),
            dims in gen::usize_in(1..4),
        ) {
            let n = values.len() / dims;
            let mapper = SpaceMapper::new(
                (0..dims).map(|d| format!("a{d}")).collect(),
                vec![Domain::new(-1.0, 1.0); dims],
            );
            let identity = NumericView::new(mapper, values[..n * dims].to_vec(), (0..n as u32).collect());
            let explicit = identity.clone().with_stored_row_ids();
            prop_assert!(identity.stored_row_ids().is_none());
            prop_assert_eq!(explicit.stored_row_ids().map(<[u32]>::len), Some(n));
            prop_assert_eq!(identity.len(), explicit.len());
            prop_assert_eq!(identity.is_empty(), explicit.is_empty());
            prop_assert!(identity.row_ids().eq(explicit.row_ids()));
            for i in 0..n {
                prop_assert_eq!(identity.row_id(i), explicit.row_id(i));
                prop_assert_eq!(identity.point_vec(i), explicit.point_vec(i));
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            write_view_to(&identity, &mut a).unwrap();
            write_view_to(&explicit, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "written files differ");
            prop_assert_eq!(&round_trip(&explicit), &identity);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("aide-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.aideview");
        let view = sample_view(1_000, 2, 42);
        write_view(&view, &path).unwrap();
        let loaded = load_view(&path).unwrap();
        assert_eq!(loaded, view);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn expect_format_error(bytes: &[u8], needle: &str) {
        match load_view_from(&mut &bytes[..]) {
            Err(DataError::Format(msg)) => {
                assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}")
            }
            other => panic!("want Format error containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let view = sample_view(64, 2, 7);
        let mut bytes = Vec::new();
        write_view_to(&view, &mut bytes).unwrap();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'x';
        expect_format_error(&bad, "bad magic");

        // Zero dims.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&0u32.to_le_bytes());
        expect_format_error(&bad, "dims");

        // Absurd dims.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_format_error(&bad, "dims");

        // Inverted domain bounds: swap lo/hi of the first attribute.
        let mut bad = bytes.clone();
        let name_len = view.mapper().attrs()[0].len();
        let lo_at = 12 + 4 + 8 + 2 + name_len;
        let (lo, hi) = (bad[lo_at..lo_at + 8].to_vec(), bad[lo_at + 8..lo_at + 16].to_vec());
        bad[lo_at..lo_at + 8].copy_from_slice(&hi);
        bad[lo_at + 8..lo_at + 16].copy_from_slice(&lo);
        expect_format_error(&bad, "invalid domain");

        // NaN domain bound.
        let mut bad = bytes;
        bad[lo_at..lo_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        expect_format_error(&bad, "invalid domain");
    }

    #[test]
    fn non_finite_lane_values_are_rejected() {
        let view = sample_view(IO_CHUNK_VALUES + 10, 2, 5);
        let mut bytes = Vec::new();
        write_view_to(&view, &mut bytes).unwrap();
        let lanes_at = bytes.len() - 2 * 8 * view.len() - 4 * view.len();
        // Lane 1, row IO_CHUNK_VALUES + 3: in the second streaming chunk.
        let row = IO_CHUNK_VALUES + 3;
        let at = lanes_at + 8 * (view.len() + row);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut corrupt = bytes.clone();
            corrupt[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            expect_format_error(&corrupt, "lane 1 (\"attr_1\") holds value");
            expect_format_error(&corrupt, "outside [0, 100]");
            expect_format_error(&corrupt, &format!("at row {row}"));
        }
    }

    #[test]
    fn out_of_domain_lane_values_are_rejected() {
        // Normalized lanes hold [0, 100]; -5 and 150 used to load, and the
        // grid index then answered the full domain with rows a scan rejects.
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let lanes = vec![vec![10.0, -5.0, 150.0, 50.0], vec![10.0, 20.0, 99.0, 50.0]];
        let view = NumericView::from_lanes(mapper.clone(), lanes, vec![0, 1, 2, 3]);
        let mut bytes = Vec::new();
        write_view_to(&view, &mut bytes).unwrap();
        expect_format_error(
            &bytes,
            "lane 0 (\"x\") holds value -5 outside [0, 100] at row 1",
        );
        // The bounds themselves, and -0.0, are in the domain.
        let lanes = vec![vec![0.0, -0.0, 100.0, 50.0], vec![100.0, 20.0, 0.0, 50.0]];
        let view = NumericView::from_lanes(mapper, lanes, vec![0, 1, 2, 3]);
        let mut bytes = Vec::new();
        write_view_to(&view, &mut bytes).unwrap();
        assert_eq!(load_view_from(&mut &bytes[..]).unwrap(), view);
    }

    /// A header for a one-lane view claiming `n` rows, with no body.
    fn header_only(n: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'x');
        bytes.extend_from_slice(&0f64.to_bits().to_le_bytes());
        bytes.extend_from_slice(&1f64.to_bits().to_le_bytes());
        bytes
    }

    #[test]
    fn oversized_row_counts_are_rejected_before_allocating() {
        // Beyond the u32 row-id range: refused by the header check.
        expect_format_error(&header_only(1 << 40), "row count");
        // Within range but with no body: the capped reservation keeps the
        // load cheap, and the missing lane bytes are reported.
        expect_format_error(&header_only(u64::from(u32::MAX)), "truncated while reading lane 0");
    }

    #[test]
    fn truncated_and_padded_files_are_rejected() {
        let view = sample_view(128, 2, 9);
        let mut bytes = Vec::new();
        write_view_to(&view, &mut bytes).unwrap();

        // Truncated mid-lane.
        expect_format_error(&bytes[..bytes.len() / 2], "truncated while reading lane");
        // Truncated mid-header.
        expect_format_error(&bytes[..14], "truncated");
        // Truncated row ids.
        expect_format_error(&bytes[..bytes.len() - 4], "truncated while reading row ids");
        // Trailing garbage.
        let mut padded = bytes;
        padded.push(0);
        expect_format_error(&padded, "trailing garbage");
    }
}
