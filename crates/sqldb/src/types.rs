//! Column types and table schemas.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use std::fmt;

/// Declared SQL column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit float (`FLOAT`, `DOUBLE`, `DOUBLE PRECISION`, `REAL`, `NUMERIC`).
    Float,
    /// UTF-8 text (`TEXT`, `VARCHAR(n)`, `CHAR(n)`).
    Text,
    /// Boolean (`BOOL`, `BOOLEAN`).
    Bool,
}

impl DataType {
    /// Checks whether `value` is storable in a column of this type,
    /// coercing ints to floats where needed.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] when the value cannot be coerced.
    pub fn coerce(&self, value: Value) -> DbResult<Value> {
        self.convert(value).map_err(|v| {
            DbError::Invalid(format!(
                "cannot store {} value in {self} column",
                v.type_name()
            ))
        })
    }

    /// `value` as a value of this type ([`DataType::coerce`]), or `value`
    /// back unchanged when it has none.
    pub fn convert(&self, value: Value) -> Result<Value, Value> {
        match (self, value) {
            (_, Value::Null) => Ok(Value::Null),
            (DataType::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
            // PostgreSQL truncates float->int on explicit insert; we accept
            // exact integral floats only, to surface workload bugs early.
            (DataType::Int, Value::Float(f)) if f.fract() == 0.0 && f.is_finite() => {
                Ok(Value::Int(f as i64))
            }
            (t, v) if v.data_type() == Some(*t) => Ok(v),
            (_, v) => Err(v),
        }
    }

    /// Parses a SQL type name (case-insensitive).
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" | "smallint" | "int4" | "int8" => Some(DataType::Int),
            "float" | "double" | "real" | "numeric" | "decimal" | "float8" | "float4" => {
                Some(DataType::Float)
            }
            "text" | "varchar" | "char" | "string" => Some(DataType::Text),
            "bool" | "boolean" => Some(DataType::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A column definition inside a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Lower-cased column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
}

impl Column {
    /// Creates a column definition; the name is lower-cased.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into().to_ascii_lowercase(),
            data_type,
        }
    }
}

/// A table schema: ordered columns plus an optional primary-key column index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    primary_key: Option<usize>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] on duplicate column names or an
    /// out-of-range primary-key index.
    pub fn new(columns: Vec<Column>, primary_key: Option<usize>) -> DbResult<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(DbError::Invalid(format!("duplicate column {}", c.name)));
            }
        }
        if let Some(pk) = primary_key {
            if pk >= columns.len() {
                return Err(DbError::Invalid("primary key index out of range".into()));
            }
        }
        Ok(Schema {
            columns,
            primary_key,
        })
    }

    /// The ordered column definitions.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the primary-key column, if declared.
    pub fn primary_key(&self) -> Option<usize> {
        self.primary_key
    }

    /// Finds a column index by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lowered = |c: &Column| {
            c.name
                .bytes()
                .eq(name.bytes().map(|b| b.to_ascii_lowercase()))
        };
        self.columns.iter().position(lowered)
    }

    /// Validates and coerces a row against this schema.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] on arity or type mismatch.
    pub fn coerce_row(&self, row: Vec<Value>) -> DbResult<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(DbError::Invalid(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.columns.len()
            )));
        }
        row.into_iter()
            .zip(&self.columns)
            .map(|(v, c)| c.data_type.coerce(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("Rank", DataType::Float),
            ],
            Some(0),
        )
        .unwrap()
    }

    #[test]
    fn column_names_are_case_insensitive() {
        let s = schema2();
        assert_eq!(s.column_index("RANK"), Some(1));
        assert_eq!(s.column_index("id"), Some(0));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(
            vec![
                Column::new("a", DataType::Int),
                Column::new("A", DataType::Text),
            ],
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn primary_key_bounds_checked() {
        let r = Schema::new(vec![Column::new("a", DataType::Int)], Some(3));
        assert!(r.is_err());
    }

    #[test]
    fn coerce_row_promotes_int_to_float() {
        let s = schema2();
        let row = s.coerce_row(vec![Value::Int(1), Value::Int(5)]).unwrap();
        assert_eq!(row[1], Value::Float(5.0));
    }

    #[test]
    fn coerce_row_rejects_bad_arity_and_type() {
        let s = schema2();
        assert!(s.coerce_row(vec![Value::Int(1)]).is_err());
        assert!(s
            .coerce_row(vec![Value::Text("x".into()), Value::Float(0.0)])
            .is_err());
    }

    #[test]
    fn type_parsing_aliases() {
        assert_eq!(DataType::parse("BIGINT"), Some(DataType::Int));
        assert_eq!(DataType::parse("double"), Some(DataType::Float));
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Text));
        assert_eq!(DataType::parse("bogus"), None);
    }
}
