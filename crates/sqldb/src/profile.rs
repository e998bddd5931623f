//! Engine profiles emulating the three RDBMSs of the paper's evaluation.
//!
//! The profiles differ *architecturally*, the way PostgreSQL 9.6, MySQL 5.7
//! and MariaDB 10.2 actually did:
//!
//! * join algorithms ([`JoinStrategy`]): PostgreSQL builds hash joins;
//!   MySQL 5.7 only had (index) nested-loop joins with a block join buffer;
//!   MariaDB 10.2 had a larger block-nested-loop buffer and batched key
//!   access, landing between the two.
//! * SQL dialect ([`EngineProfile::dialect`]): identifier quoting, the
//!   join-update syntax, `||` vs `CONCAT`, `Infinity` literals, and
//!   recursive-CTE support differ per engine. [`crate::render`] spells a
//!   statement in each dialect, so the same user query runs everywhere; the
//!   engine *validates* incoming statements against its profile, so
//!   forgetting to translate fails loudly (as it would against the real
//!   engine).

use std::fmt;

/// Which real-world engine this database emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineProfile {
    /// PostgreSQL 9.6-era behaviour (hash joins, `UPDATE … FROM`).
    #[default]
    Postgres,
    /// Oracle MySQL 5.7-era behaviour (nested-loop joins only, no recursive
    /// CTEs, `UPDATE … JOIN`).
    MySql,
    /// MariaDB 10.2-era behaviour (nested-loop with large join buffer).
    MariaDb,
}

impl EngineProfile {
    /// All profiles, in the order the paper's figures present them.
    pub const ALL: [EngineProfile; 3] = [
        EngineProfile::Postgres,
        EngineProfile::MySql,
        EngineProfile::MariaDb,
    ];

    /// Human-readable engine name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            EngineProfile::Postgres => "PostgreSQL",
            EngineProfile::MySql => "MySQL",
            EngineProfile::MariaDb => "MariaDB",
        }
    }

    /// Parses a profile name (case-insensitive, several aliases).
    pub fn parse(s: &str) -> Option<EngineProfile> {
        match s.to_ascii_lowercase().as_str() {
            "postgres" | "postgresql" | "pg" => Some(EngineProfile::Postgres),
            "mysql" => Some(EngineProfile::MySql),
            "mariadb" | "maria" => Some(EngineProfile::MariaDb),
            _ => None,
        }
    }

    /// The dialect rules for this engine.
    pub fn dialect(&self) -> Dialect {
        match self {
            EngineProfile::Postgres => Dialect {
                profile: *self,
                ident_quote: '"',
                supports_update_from: true,
                supports_update_join: false,
                supports_concat_operator: true,
                supports_infinity_literal: true,
                supports_recursive_cte: true,
                supports_unlogged: true,
                float_type_name: "DOUBLE PRECISION",
            },
            EngineProfile::MySql => Dialect {
                profile: *self,
                ident_quote: '`',
                supports_update_from: false,
                supports_update_join: true,
                supports_concat_operator: false,
                supports_infinity_literal: false,
                supports_recursive_cte: false,
                supports_unlogged: false,
                float_type_name: "DOUBLE",
            },
            EngineProfile::MariaDb => Dialect {
                profile: *self,
                ident_quote: '`',
                supports_update_from: false,
                supports_update_join: true,
                supports_concat_operator: true,
                supports_infinity_literal: false,
                supports_recursive_cte: true,
                supports_unlogged: false,
                float_type_name: "DOUBLE",
            },
        }
    }

    /// The join algorithm family the executor uses for equi-joins.
    pub fn join_strategy(&self) -> JoinStrategy {
        match self {
            EngineProfile::Postgres => JoinStrategy::Hash,
            EngineProfile::MySql => JoinStrategy::BlockNestedLoop { buffer_rows: 256 },
            EngineProfile::MariaDb => JoinStrategy::BlockNestedLoop { buffer_rows: 4096 },
        }
    }

    /// Rows per column batch in the vectorized executor. The three profiles
    /// use deliberately different sizes (small / default / large, echoing
    /// their join-buffer spread) so they stay architecturally distinct.
    pub fn batch_size(&self) -> usize {
        match self {
            EngineProfile::MySql => 256,
            EngineProfile::Postgres => 1024,
            EngineProfile::MariaDb => 4096,
        }
    }
}

impl fmt::Display for EngineProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Equi-join execution strategy: the algorithm a profile falls back to
/// when [`crate::join::choose_join`] does not probe an index on the inner
/// join column instead (which it may on any profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Build a hash table on the smaller side (PostgreSQL).
    Hash,
    /// Nested loop joining `buffer_rows` outer rows per inner pass
    /// (MySQL/MariaDB block-nested-loop).
    BlockNestedLoop {
        /// Outer rows buffered per inner scan.
        buffer_rows: usize,
    },
}

/// Dialect capabilities and spellings for one engine profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dialect {
    /// Which profile these rules belong to.
    pub profile: EngineProfile,
    /// Identifier quote character (`"` or `` ` ``).
    pub ident_quote: char,
    /// `UPDATE t SET … FROM f WHERE …` accepted.
    pub supports_update_from: bool,
    /// `UPDATE t JOIN f ON … SET …` accepted.
    pub supports_update_join: bool,
    /// `||` string concatenation accepted (`CONCAT(…)` otherwise).
    pub supports_concat_operator: bool,
    /// The `Infinity` float literal accepted.
    pub supports_infinity_literal: bool,
    /// Native recursive CTE evaluation available.
    pub supports_recursive_cte: bool,
    /// `CREATE UNLOGGED TABLE` accepted.
    pub supports_unlogged: bool,
    /// Spelling of the 64-bit float type.
    pub float_type_name: &'static str,
}

impl Dialect {
    /// Quotes an identifier with the dialect's quote character.
    pub fn quote(&self, ident: &str) -> String {
        let q = self.ident_quote;
        let escaped = ident.replace(q, &format!("{q}{q}"));
        format!("{q}{escaped}{q}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parsing() {
        assert_eq!(EngineProfile::parse("pg"), Some(EngineProfile::Postgres));
        assert_eq!(EngineProfile::parse("MySQL"), Some(EngineProfile::MySql));
        assert_eq!(EngineProfile::parse("maria"), Some(EngineProfile::MariaDb));
        assert_eq!(EngineProfile::parse("oracle"), None);
    }

    #[test]
    fn dialect_capabilities_differ() {
        let pg = EngineProfile::Postgres.dialect();
        let my = EngineProfile::MySql.dialect();
        assert!(pg.supports_update_from && !my.supports_update_from);
        assert!(!pg.supports_update_join && my.supports_update_join);
        assert!(pg.supports_recursive_cte && !my.supports_recursive_cte);
        assert!(pg.supports_infinity_literal && !my.supports_infinity_literal);
    }

    #[test]
    fn quoting() {
        assert_eq!(
            EngineProfile::Postgres.dialect().quote("a\"b"),
            "\"a\"\"b\""
        );
        assert_eq!(EngineProfile::MySql.dialect().quote("col"), "`col`");
    }

    #[test]
    fn batch_sizes_are_distinct_per_profile() {
        let sizes: Vec<usize> = EngineProfile::ALL.iter().map(|p| p.batch_size()).collect();
        assert!(sizes.iter().all(|&s| s >= 1));
        let mut uniq = sizes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "profiles must use distinct batch sizes");
    }

    #[test]
    fn join_strategies() {
        assert_eq!(EngineProfile::Postgres.join_strategy(), JoinStrategy::Hash);
        assert!(matches!(
            EngineProfile::MySql.join_strategy(),
            JoinStrategy::BlockNestedLoop { buffer_rows: 256 }
        ));
        let maria = EngineProfile::MariaDb.join_strategy();
        let mysql = EngineProfile::MySql.join_strategy();
        match (maria, mysql) {
            (
                JoinStrategy::BlockNestedLoop { buffer_rows: a },
                JoinStrategy::BlockNestedLoop { buffer_rows: b },
            ) => assert!(a > b, "MariaDB's join buffer should exceed MySQL's"),
            _ => panic!(),
        }
    }
}
