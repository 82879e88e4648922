//! Property-based tests for the RNG, distribution and geometry substrate,
//! running on the hermetic `aide-testkit` harness.

use aide_testkit::prop::gen;
use aide_testkit::{forall, prop_assert, prop_assert_eq};
use aide_util::geom::Rect;
use aide_util::json::Json;
use aide_util::par::Pool;
use aide_util::rng::{Rng, Xoshiro256pp};
use aide_util::stats::OnlineStats;

/// A generator of valid rectangle bounds in the normalized space; the
/// `Rect` itself is constructed in the property body so the raw bounds
/// keep shrinking.
fn rect_bounds(dims: usize) -> impl gen::Gen<Value = Vec<(f64, f64)>> {
    gen::vec_of(
        (gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)),
        dims..dims + 1,
    )
}

fn rect_from(bounds: &[(f64, f64)]) -> Rect {
    let lo = bounds.iter().map(|&(a, b)| a.min(b)).collect();
    let hi = bounds.iter().map(|&(a, b)| a.max(b)).collect();
    Rect::new(lo, hi)
}

/// Characters a JSON string must survive: printable ASCII, the two the
/// writer escapes by name, every control character, DEL, and non-ASCII
/// text from two to four UTF-8 bytes, the line and paragraph separators
/// and the last code points of both planes among it.
const JSON_CHARS: &str = "aZ09 /:{}[],\"\\\u{0}\u{1}\u{8}\t\n\u{b}\u{c}\r\u{1b}\u{1f}\u{7f}\
    éß€中日\u{2028}\u{2029}\u{ffff}😀\u{10ffff}";

/// Nested JSON values up to `depth` levels of arrays and objects, with
/// escape-heavy and non-ASCII strings and finite numbers that include
/// ±0, subnormals and the extremes of `f64`. Shrinks toward a child, a
/// shorter container, a shorter string or 0.
#[derive(Debug, Clone)]
struct JsonGen {
    depth: usize,
}

impl JsonGen {
    fn string(rng: &mut Xoshiro256pp) -> String {
        let chars: Vec<char> = JSON_CHARS.chars().collect();
        let len = rng.index(10);
        (0..len).map(|_| chars[rng.index(chars.len())]).collect()
    }

    fn number(rng: &mut Xoshiro256pp) -> f64 {
        let bits = rng.next_u64();
        let special = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            1e21,
            1e-7,
            9_007_199_254_740_993.0,
        ];
        match rng.index(5) {
            // Any finite bit pattern: a non-finite one keeps its sign and
            // mantissa as a subnormal.
            0 => {
                let v = f64::from_bits(bits);
                if v.is_finite() {
                    v
                } else {
                    f64::from_bits(bits & 0x800f_ffff_ffff_ffff)
                }
            }
            1 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
            2 => special[rng.index(special.len())],
            3 => (bits % 2_001) as f64 - 1_000.0,
            _ => rng.uniform(-1e6, 1e6),
        }
    }
}

impl gen::Gen for JsonGen {
    type Value = Json;

    fn generate(&self, rng: &mut Xoshiro256pp) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let child = JsonGen {
            depth: self.depth.saturating_sub(1),
        };
        match rng.index(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(Self::number(rng)),
            3 => Json::Str(Self::string(rng)),
            4 => Json::Arr((0..rng.index(5)).map(|_| child.generate(rng)).collect()),
            _ => Json::Obj(
                (0..rng.index(5))
                    .map(|_| (Self::string(rng), child.generate(rng)))
                    .collect(),
            ),
        }
    }

    fn shrink(&self, value: &Json) -> Vec<Json> {
        match value {
            Json::Null => Vec::new(),
            Json::Bool(_) | Json::Num(_) => vec![Json::Null],
            Json::Str(s) => {
                let mut chars: Vec<char> = s.chars().collect();
                let mut out = vec![Json::Null];
                if chars.pop().is_some() {
                    out.push(Json::Str(chars.into_iter().collect()));
                }
                out
            }
            Json::Arr(items) => {
                let mut out: Vec<Json> = items.clone();
                out.extend((0..items.len()).map(|i| {
                    let mut fewer = items.clone();
                    fewer.remove(i);
                    Json::Arr(fewer)
                }));
                out
            }
            Json::Obj(pairs) => {
                let mut out: Vec<Json> = pairs.iter().map(|(_, v)| v.clone()).collect();
                out.extend((0..pairs.len()).map(|i| {
                    let mut fewer = pairs.clone();
                    fewer.remove(i);
                    Json::Obj(fewer)
                }));
                out
            }
        }
    }
}

/// Equality with numbers compared bit for bit, so `-0` differs from `0`.
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

forall! {
    /// The wire codec round-trips: writing any value and parsing the text
    /// gives the value back, every number bit for bit.
    fn json_write_then_parse_is_the_identity(value in JsonGen { depth: 4 }) {
        let text = value.to_string();
        let back = Json::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        prop_assert!(same_bits(&back, &value), "{text} parsed as {back:?}");
    }

    fn uniform_stays_in_bounds(
        seed in gen::any_u64(),
        lo in gen::f64_in(-1e6..1e6),
        width in gen::f64_in(0.0..1e6),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hi = lo + width;
        for _ in 0..100 {
            let v = rng.uniform(lo, hi);
            prop_assert!(v >= lo);
            prop_assert!(v <= hi);
        }
    }

    fn below_is_in_range(seed in gen::any_u64(), n in gen::u64_in(1..1_000_000)) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    fn sample_indices_is_a_subset_without_duplicates(
        seed in gen::any_u64(),
        n in gen::usize_in(0..500),
        k in gen::usize_in(0..600),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut sample = rng.sample_indices(n, k);
        prop_assert_eq!(sample.len(), k.min(n));
        sample.sort_unstable();
        let len = sample.len();
        sample.dedup();
        prop_assert_eq!(sample.len(), len, "duplicates in sample");
        prop_assert!(sample.iter().all(|&i| i < n));
    }

    fn shuffle_preserves_multiset(
        seed in gen::any_u64(),
        mut v in gen::vec_of(gen::any_u32(), 0..100),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut original = v.clone();
        rng.shuffle(&mut v);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(original, v);
    }

    fn rect_intersection_is_commutative_and_contained(
        a_bounds in rect_bounds(3),
        b_bounds in rect_bounds(3),
    ) {
        let a = rect_from(&a_bounds);
        let b = rect_from(&b_bounds);
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        prop_assert_eq!(&ab, &ba);
        if let Some(i) = ab {
            for d in 0..3 {
                prop_assert!(i.lo(d) >= a.lo(d) && i.lo(d) >= b.lo(d));
                prop_assert!(i.hi(d) <= a.hi(d) && i.hi(d) <= b.hi(d));
            }
            prop_assert!(i.volume() <= a.volume() + 1e-9);
            prop_assert!(i.volume() <= b.volume() + 1e-9);
        }
    }

    fn rect_contains_center_and_expansion_is_monotone(
        r_bounds in rect_bounds(2),
        margin in gen::f64_in(0.0..50.0),
    ) {
        let r = rect_from(&r_bounds);
        let c = r.center();
        prop_assert!(r.contains(&c));
        let bounds = Rect::full_domain(2);
        let grown = r.expanded(margin, &bounds);
        prop_assert!(grown.contains(&c));
        prop_assert!(
            grown.volume() + 1e-9
                >= r.intersection(&bounds).map(|i| i.volume()).unwrap_or(0.0)
        );
    }

    fn overlap_fraction_is_a_fraction(
        a_bounds in rect_bounds(2),
        b_bounds in rect_bounds(2),
    ) {
        let a = rect_from(&a_bounds);
        let b = rect_from(&b_bounds);
        let f = a.overlap_fraction(&b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f), "fraction {f}");
        // Self-overlap of a non-degenerate rect is 1.
        if a.volume() > 0.0 {
            prop_assert!((a.overlap_fraction(&a) - 1.0).abs() < 1e-9);
        }
    }

    fn online_stats_mean_is_bounded_by_min_max(
        values in gen::vec_of(gen::f64_in(-1e9..1e9), 1..200),
    ) {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        prop_assert!(s.mean() >= s.min().unwrap() - 1e-6);
        prop_assert!(s.mean() <= s.max().unwrap() + 1e-6);
        prop_assert!(s.variance() >= 0.0);
    }

    /// Parallel Welford: merging the stats of any split of a stream is
    /// equivalent to accumulating the whole stream in one pass.
    fn online_stats_merge_of_splits_matches_single_pass(
        values in gen::vec_of(gen::f64_in(-1e9..1e9), 0..200),
        split in gen::usize_in(0..200),
    ) {
        let split = split.min(values.len());
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for &v in &values[..split] {
            left.push(v);
            whole.push(v);
        }
        for &v in &values[split..] {
            right.push(v);
            whole.push(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        let scale = 1.0 + whole.mean().abs();
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9 * scale);
        let var_scale = 1.0 + whole.variance().abs();
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6 * var_scale);
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// The pool's replay guarantee: a chunked floating-point reduction is
    /// bit-identical to the serial fold for any (len, chunk, threads)
    /// combination, and the parallel collect preserves element order.
    fn par_map_reduce_is_bit_identical_to_serial(
        seed in gen::any_u64(),
        len in gen::usize_in(0..2_000),
        chunk in gen::usize_in(1..257),
        threads in gen::usize_in(1..9),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let data: Vec<f64> = (0..len).map(|_| rng.uniform(-1e3, 1e3)).collect();
        let sum = |pool: &Pool| {
            pool.par_map_reduce(
                data.len(),
                chunk,
                |r| data[r].iter().sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            )
        };
        let serial = sum(&Pool::serial());
        let par = sum(&Pool::new(threads));
        prop_assert_eq!(serial.to_bits(), par.to_bits());

        let collected = Pool::new(threads)
            .par_map_collect(len, chunk, |r| r.map(|i| data[i].to_bits()).collect());
        let want: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(collected, want);
    }
}
