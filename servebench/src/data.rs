//! Dataset preparation: each workload's `aide-view/1` file, generated
//! from the run seed, recorded with its size and a content checksum, and
//! verified (which also pre-reads it into the page cache) before any
//! timed run, so neither generation nor a cold read enters a number.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

use aide_bench::harness::{cached_uniform_view, dense_view, sdss_table};
use aide_data::{load_view, write_view, NumericView};
use aide_util::json::{obj, Json};

use crate::workload::{DataKind, Workload};

/// Where generated datasets live, relative to the checkout root.
pub const DATA_DIR: &str = "servebench/data";

/// A verified dataset file plus the view loaded from it.
pub struct Prepared {
    pub path: PathBuf,
    pub view: NumericView,
    pub bytes: u64,
    pub checksum: u64,
}

/// The metadata recorded next to a dataset file.
#[derive(Debug, PartialEq)]
struct Meta {
    workload: String,
    seed: u64,
    rows: u64,
    dims: u64,
    bytes: u64,
    checksum: u64,
}

impl Meta {
    fn to_json(&self) -> String {
        obj(vec![
            ("format", Json::Str("aide-view/1".into())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("rows", Json::Num(self.rows as f64)),
            ("dims", Json::Num(self.dims as f64)),
            ("bytes", Json::Num(self.bytes as f64)),
            ("checksum", Json::Str(format!("{:016x}", self.checksum))),
        ])
        .to_string()
    }

    fn parse(text: &str) -> Option<Meta> {
        let j = Json::parse(text).ok()?;
        Some(Meta {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_str()?.parse().ok()?,
            rows: j.get("rows")?.as_u64()?,
            dims: j.get("dims")?.as_u64()?,
            bytes: j.get("bytes")?.as_u64()?,
            checksum: u64::from_str_radix(j.get("checksum")?.as_str()?, 16).ok()?,
        })
    }
}

/// Reads the whole file and returns `(bytes, checksum)`: FNV-1a over
/// little-endian 64-bit words (a short tail is zero-padded).
pub fn checksum_file(path: &Path) -> std::io::Result<(u64, u64)> {
    let mut reader = BufReader::with_capacity(1 << 20, File::open(path)?);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut total = 0u64;
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = read_full(&mut reader, &mut buf)?;
        if n == 0 {
            break;
        }
        total += n as u64;
        for chunk in buf[..n].chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            hash ^= u64::from_le_bytes(word);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok((total, hash))
}

/// Fills `buf` as far as the stream allows; returns the bytes read.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// Makes sure `workload`'s dataset for `seed` is on disk and intact, and
/// returns it. A file whose metadata names another seed or shape, or
/// whose size or checksum disagrees with its metadata, is regenerated;
/// a freshly written file that still fails verification is an error.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let dir = Path::new(DATA_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {DATA_DIR}: {e}"))?;
    let path = dir.join(format!("{}.aideview", w.name));
    let meta_path = dir.join(format!("{}.meta.json", w.name));
    let want = |bytes, checksum| Meta {
        workload: w.name.to_string(),
        seed,
        rows: w.rows as u64,
        dims: 2,
        bytes,
        checksum,
    };
    let recorded = std::fs::read_to_string(&meta_path)
        .ok()
        .and_then(|t| Meta::parse(&t));
    if let Some(meta) = recorded {
        if meta == want(meta.bytes, meta.checksum) {
            if let Ok((bytes, checksum)) = checksum_file(&path) {
                if bytes == meta.bytes && checksum == meta.checksum {
                    let view = load_checked(&path, w)?;
                    return Ok(Prepared {
                        path,
                        view,
                        bytes,
                        checksum,
                    });
                }
            }
            eprintln!(
                "servebench: {} does not match its metadata; regenerating",
                path.display()
            );
        }
    }
    let _ = std::fs::remove_file(&meta_path);
    let _ = std::fs::remove_file(&path);
    let data_seed = seed ^ 0xDA7A_5EED;
    let view = match w.data {
        DataKind::Sdss => {
            let view = dense_view(&sdss_table(w.rows, data_seed));
            write_view(&view, &path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            view
        }
        DataKind::Uniform => cached_uniform_view(&path, w.rows, 2, data_seed),
    };
    let (bytes, checksum) =
        checksum_file(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let loaded = load_checked(&path, w)?;
    if loaded.lane(0) != view.lane(0) || loaded.lane(1) != view.lane(1) {
        return Err(format!("{} does not read back as written", path.display()));
    }
    std::fs::write(&meta_path, want(bytes, checksum).to_json())
        .map_err(|e| format!("cannot write {}: {e}", meta_path.display()))?;
    Ok(Prepared {
        path,
        view: loaded,
        bytes,
        checksum,
    })
}

fn load_checked(path: &Path, w: &Workload) -> Result<NumericView, String> {
    let view = load_view(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    if view.len() != w.rows || view.dims() != 2 {
        return Err(format!(
            "{} holds {} rows x {} dims, {} wants {} x 2",
            path.display(),
            view.len(),
            view.dims(),
            w.name,
            w.rows
        ));
    }
    Ok(view)
}
