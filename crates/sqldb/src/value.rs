//! Runtime values and SQL three-valued comparison semantics.

use crate::error::{DbError, DbResult};
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A single SQL value.
///
/// `Float` uses a total order (`f64::total_cmp`) for sorting and grouping so
/// that values can live in hash and btree indexes; SQL comparison operators
/// still return `Null` when either side is `Null`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float. `Infinity` literals parse to this variant.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns `true` if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a filter predicate result: only `Bool(true)`
    /// passes; `Null` and `false` reject the row.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view as `f64`, if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if the value is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view, if the value is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Name of the value's runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Bool(_) => "bool",
        }
    }

    /// The column type the value is stored as (`None` for NULL).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// SQL equality: returns `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL ordering comparison: returns `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order over all values, used for sorting, grouping and indexes.
    ///
    /// NULL sorts first; numeric values compare numerically across
    /// `Int`/`Float`; mixed non-numeric types compare by type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats share a rank: they intercompare
            Value::Text(_) => 3,
        }
    }

    /// Arithmetic addition with int/float promotion.
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] when the operands are non-numeric.
    pub fn add(&self, other: &Value) -> DbResult<Value> {
        self.numeric_binop(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Arithmetic subtraction with int/float promotion.
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] when the operands are non-numeric.
    pub fn sub(&self, other: &Value) -> DbResult<Value> {
        self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Arithmetic multiplication with int/float promotion.
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] when the operands are non-numeric.
    pub fn mul(&self, other: &Value) -> DbResult<Value> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Arithmetic division. Integer division truncates; division by integer
    /// zero and `i64::MIN / -1` are errors, float division follows IEEE
    /// semantics.
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] on division by integer zero, integer
    /// overflow or non-numeric operands.
    pub fn div(&self, other: &Value) -> DbResult<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(DbError::Eval("division by zero".into())),
            (Value::Int(a), Value::Int(b)) => a
                .checked_div(*b)
                .map(Value::Int)
                .ok_or_else(|| DbError::Eval("integer overflow in /".into())),
            _ => {
                let (a, b) = self.both_f64(other, "/")?;
                Ok(Value::Float(canonical_nan(a / b)))
            }
        }
    }

    /// Arithmetic remainder (`i64::MIN % -1` is 0).
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] on modulo by integer zero or non-numeric
    /// operands.
    pub fn rem(&self, other: &Value) -> DbResult<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(DbError::Eval("modulo by zero".into())),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(*b))),
            _ => {
                let (a, b) = self.both_f64(other, "%")?;
                Ok(Value::Float(canonical_nan(a % b)))
            }
        }
    }

    /// Unary negation.
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] when the operand is non-numeric.
    pub fn neg(&self) -> DbResult<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(DbError::Eval(format!("cannot negate {}", v.type_name()))),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> DbResult<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
                .map(Value::Int)
                .ok_or_else(|| DbError::Eval(format!("integer overflow in {op}"))),
            _ => {
                let (a, b) = self.both_f64(other, op)?;
                Ok(Value::Float(canonical_nan(float_op(a, b))))
            }
        }
    }

    fn both_f64(&self, other: &Value, op: &str) -> DbResult<(f64, f64)> {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(DbError::Eval(format!(
                "operator {op} requires numeric operands, got {} and {}",
                self.type_name(),
                other.type_name()
            ))),
        }
    }
}

/// `f`, or `f64::NAN` when `f` is any NaN. IEEE leaves a computed NaN's
/// sign and payload to the hardware and the optimiser (operands may be
/// commuted or vectorised), and `total_cmp` orders NaNs by those bits, so
/// every binary arithmetic result goes through here to make the row
/// evaluator and the batch kernels agree on MIN/MAX/ORDER BY.
/// Passed-through values keep their bits.
pub(crate) fn canonical_nan(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else {
        f
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // ints and floats that compare equal must hash equal
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
        }
    }
}

/// The engine's one key hasher (indexes, hash join, `GROUP BY`, `DISTINCT`):
/// each word is folded high-to-low and multiplied in; `finish` folds again.
/// [`Value::Int`] hashes the bits of the `f64` it equals, whose high half
/// holds a small integer, so unfolded the bucket-picking low bits agree.
/// Keys come from the embedding application: it does not resist flooding.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

/// A hash map keyed through [`KeyHasher`].
pub(crate) type KeyMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<KeyHasher>>;

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i ^ (i >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// [`KeyHasher`]'s hash of one `i64`, which the hash join and `DISTINCT`
/// bucket integer keys by.
pub(crate) fn int_key_hash(i: i64) -> u64 {
    let mut h = KeyHasher::default();
    h.write_i64(i);
    h.finish()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.is_infinite() {
                    write!(f, "{}Infinity", if *v < 0.0 { "-" } else { "" })
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A row is a fixed-arity vector of values matching a table schema.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).mul(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn int_float_promotion() {
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Float(7.0).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Int(1).rem(&Value::Int(0)).is_err());
    }

    #[test]
    fn sql_comparison_returns_none_on_null() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn int_and_float_compare_and_hash_consistently() {
        use std::collections::hash_map::DefaultHasher;
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn total_order_sorts_null_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn infinity_displays_like_postgres() {
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "Infinity");
        assert_eq!(Value::Float(f64::NEG_INFINITY).to_string(), "-Infinity");
    }

    #[test]
    fn integer_overflow_detected() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).sub(&Value::Int(1)).is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }
}
