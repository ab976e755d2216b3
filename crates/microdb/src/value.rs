//! Cell values and column types.

use std::cmp::Ordering;
use std::fmt;

/// The SQL-ish type of a column.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ColumnType {
    /// Booleans.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Bool => "BOOL",
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "TEXT",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// `Value` has a *total* order (`Null < Bool < numbers < Str`, with
/// NaN ordered after every other float) so rows can always be sorted —
/// the property `ORDER BY` and sort-merge joins rely on.
///
/// # Examples
///
/// ```
/// use microdb::Value;
///
/// assert!(Value::Null < Value::Int(0));
/// assert!(Value::Int(1) < Value::Int(2));
/// assert_eq!(Value::from("abc"), Value::Str("abc".to_owned()));
/// ```
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// The column type this value inhabits, or `None` for NULL.
    #[must_use]
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ColumnType::Bool),
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Str(_) => Some(ColumnType::Str),
        }
    }

    /// Whether this is `Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts an integer, if this value is one.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a string slice, if this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a bool, if this value is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts a float, accepting integers (SQL-style numeric
    /// widening).
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// Compares an integer with a float *exactly*, placing the integer
/// where its mathematical value falls in `f64::total_cmp`'s order:
/// `Int(0)` sits with `+0.0` (above `-0.0`), NaNs stay at the ends, and
/// an integer no float can represent (beyond ±2^53) lies strictly
/// between its two neighbouring floats. Rounding the integer to `f64`
/// instead would make `Int(2^53) == Float(2^53) == Int(2^53 + 1)` while
/// `Int(2^53) < Int(2^53 + 1)` — not an order at all.
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    // 2^63: the first float above every i64 (i64::MIN is exactly -2^63).
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    // `b` now lies in [-2^63, 2^63), so its integer part is exact.
    let whole = b.trunc();
    match a.cmp(&(whole as i64)) {
        Ordering::Equal => {
            let frac = b - whole;
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 || (b == 0.0 && b.is_sign_negative()) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        unequal => unequal,
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // Int and Float share a rank, and Int(i) == Float(f) exactly
            // when f represents i: such an integer hashes through that
            // float's bits. Any other integer equals no float, so its own
            // bits will do.
            Value::Int(i) => {
                let f = *i as f64;
                if f as i128 == i128::from(*i) {
                    f.to_bits().hash(state);
                } else {
                    i.hash(state);
                }
            }
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i64::try_from(i).expect("usize too large for Value::Int"))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = vec![
            Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(1.5),
                Value::Int(3),
                Value::Str("a".into()),
            ]
        );
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn int_float_order_is_exact_beyond_two_to_the_53() {
        // 2^53 + 1 is the first integer no f64 can represent; rounding
        // it to a float made it equal to Float(2^53) and so, by
        // transitivity, to Int(2^53) — which it is not.
        let two53 = 1_i64 << 53;
        let (a, f, b) = (
            Value::Int(two53),
            Value::Float(two53 as f64),
            Value::Int(two53 + 1),
        );
        assert_eq!(a, f);
        assert!(f < b, "Float(2^53) < Int(2^53 + 1)");
        assert!(a < b);
        assert_eq!(hash_of(&a), hash_of(&f));
        // The order is total: a sort over the mixed values is consistent.
        let mut vals = [
            b.clone(),
            f.clone(),
            a.clone(),
            Value::Float(two53 as f64 + 2.0),
        ];
        vals.sort();
        assert_eq!(vals[2], b);
        for w in vals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // The ends of the i64 range and the signed zeros.
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0)
        );
        assert!(Value::Int(i64::MIN) > Value::Float(f64::NEG_INFINITY));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Float(-0.5) < Value::Int(0) && Value::Int(0) < Value::Float(0.5));
        assert!(Value::Int(-1) < Value::Float(-0.5));
        assert!(Value::Int(1) > Value::Float(f64::NAN.copysign(-1.0)));
        assert!(Value::Int(1) < Value::Float(f64::NAN));
    }

    #[test]
    fn nan_is_ordered_not_poisonous() {
        assert!(Value::Float(f64::NAN) > Value::Float(1e300));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn eq_implies_same_hash() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::Str("x".into())), hash_of(&Value::from("x")));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(Some("a")), Value::Str("a".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.column_type(), None);
        assert_eq!(Value::Int(1).column_type(), Some(ColumnType::Int));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Int(-2).to_string(), "-2");
    }
}
