//! Primary-key ranges: the bound a range scan seeks every sorted run by.
//!
//! Keys are ordered by `Value::cmp` (the ADM total order), which is the
//! order memtables and components store them in, so a range is a pair of
//! [`Bound`]s under that order and seeking is a `partition_point` on any
//! sorted run — no I/O, since every component keeps its key column in
//! memory.

use std::cmp::Ordering;
use std::ops::{Bound, Range};

use idea_adm::Value;

/// A primary-key interval `lo .. hi` under the ADM total order. Empty
/// and inverted ranges are legal and select nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    pub lo: Bound<Value>,
    pub hi: Bound<Value>,
}

impl Default for KeyRange {
    fn default() -> Self {
        KeyRange::all()
    }
}

impl KeyRange {
    /// Every key.
    pub const fn all() -> KeyRange {
        KeyRange { lo: Bound::Unbounded, hi: Bound::Unbounded }
    }

    pub fn new(lo: Bound<Value>, hi: Bound<Value>) -> KeyRange {
        KeyRange { lo, hi }
    }

    /// The single key `k`.
    pub fn point(k: Value) -> KeyRange {
        KeyRange { lo: Bound::Included(k.clone()), hi: Bound::Included(k) }
    }

    /// Whether `k` lies inside the range.
    pub fn contains(&self, k: &Value) -> bool {
        let above = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(v) => k >= v,
            Bound::Excluded(v) => k > v,
        };
        let below = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(v) => k <= v,
            Bound::Excluded(v) => k < v,
        };
        above && below
    }

    /// The tighter of the two ranges on each side (their intersection).
    pub fn intersect(self, other: KeyRange) -> KeyRange {
        KeyRange {
            lo: tighter(self.lo, other.lo, Ordering::Greater),
            hi: tighter(self.hi, other.hi, Ordering::Less),
        }
    }

    /// The positions of a sorted run whose keys fall inside the range:
    /// two `partition_point` seeks. An inverted range yields an empty
    /// span.
    pub fn span<T>(&self, run: &[T], key: impl Fn(&T) -> &Value) -> Range<usize> {
        let start = match &self.lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => run.partition_point(|e| key(e) < v),
            Bound::Excluded(v) => run.partition_point(|e| key(e) <= v),
        };
        let end = match &self.hi {
            Bound::Unbounded => run.len(),
            Bound::Included(v) => run.partition_point(|e| key(e) <= v),
            Bound::Excluded(v) => run.partition_point(|e| key(e) < v),
        };
        start..end.max(start)
    }
}

/// Of two bounds on the same side, the one that admits less. `toward`
/// is the direction that tightens: `Greater` for lower bounds, `Less`
/// for upper bounds. At equal values an exclusive bound is tighter.
fn tighter(a: Bound<Value>, b: Bound<Value>, toward: Ordering) -> Bound<Value> {
    let ord = match (&a, &b) {
        (Bound::Unbounded, _) => return b,
        (_, Bound::Unbounded) => return a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            x.cmp(y)
        }
    };
    match ord {
        Ordering::Equal if matches!(a, Bound::Excluded(_)) => a,
        Ordering::Equal => b,
        ord if ord == toward => a,
        _ => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(ks: &[i64]) -> Vec<Value> {
        ks.iter().map(|k| Value::Int(*k)).collect()
    }

    fn span(r: &KeyRange, run: &[Value]) -> Range<usize> {
        r.span(run, |k| k)
    }

    #[test]
    fn span_seeks_both_bounds() {
        let run = keys(&[1, 3, 5, 7, 9]);
        let r = |lo, hi| KeyRange::new(lo, hi);
        use Bound::*;
        assert_eq!(span(&KeyRange::all(), &run), 0..5);
        assert_eq!(span(&r(Included(Value::Int(3)), Excluded(Value::Int(7))), &run), 1..3);
        assert_eq!(span(&r(Excluded(Value::Int(3)), Included(Value::Int(7))), &run), 2..4);
        // Bounds between keys.
        assert_eq!(span(&r(Included(Value::Int(4)), Included(Value::Int(8))), &run), 2..4);
        // Outside every key.
        assert_eq!(span(&r(Included(Value::Int(10)), Unbounded), &run), 5..5);
        assert_eq!(span(&r(Unbounded, Excluded(Value::Int(1))), &run), 0..0);
        // Inverted.
        assert_eq!(span(&r(Included(Value::Int(7)), Included(Value::Int(3))), &run), 3..3);
        // Empty at a single excluded key.
        assert_eq!(span(&r(Excluded(Value::Int(5)), Excluded(Value::Int(5))), &run), 3..3);
        assert_eq!(span(&KeyRange::point(Value::Int(5)), &run), 2..3);
    }

    #[test]
    fn mixed_numerics_seek_by_value() {
        let run = keys(&[1, 2, 3]);
        let r =
            KeyRange::new(Bound::Excluded(Value::Double(1.5)), Bound::Included(Value::Double(3.0)));
        assert_eq!(span(&r, &run), 1..3);
        assert!(r.contains(&Value::Int(3)));
        assert!(!r.contains(&Value::Int(1)));
    }

    #[test]
    fn intersect_keeps_the_tighter_bound() {
        use Bound::*;
        let a = KeyRange::new(Included(Value::Int(3)), Included(Value::Int(10)));
        let b = KeyRange::new(Excluded(Value::Int(3)), Excluded(Value::Int(12)));
        let c = a.clone().intersect(b);
        assert_eq!(c, KeyRange::new(Excluded(Value::Int(3)), Included(Value::Int(10))));
        assert_eq!(KeyRange::all().intersect(a.clone()), a);
    }
}
