//! Table I — the termination-condition taxonomy (paper §III-B): one live
//! demonstration per syntactic form, on a small deterministic graph,
//! reporting how many iterations each condition took to satisfy.
//!
//! Usage: `cargo run --release -p sqloop-bench --bin table1_terminations`

use sqldb::EngineProfile;
use sqloop::{ExecutionMode, SqloopConfig};
use sqloop_bench::{env_with_graph, write_csv, Table};

/// Builds a PageRank-style iterative CTE with the given termination clause.
fn pr_with_termination(tc: &str) -> String {
    format!(
        "\
WITH ITERATIVE pr(Node, Rank, Delta) AS (
  SELECT src, 0, 0.15
  FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src
  ITERATE
  SELECT pr.Node, COALESCE(pr.Rank + pr.Delta, 0.15),
         COALESCE(0.85 * SUM(ir.Delta * ie.weight), 0.0)
  FROM pr
  LEFT JOIN edges AS ie ON pr.Node = ie.dst
  LEFT JOIN pr AS ir ON ir.Node = ie.src
  GROUP BY pr.Node
  UNTIL {tc})
SELECT COUNT(*) FROM pr"
    )
}

fn main() {
    println!("== Table I: termination-condition types ==\n");
    let graph = graphgen::web_graph(300, 3, 11);
    let env = env_with_graph(EngineProfile::Postgres, &graph);

    // (type, Tc syntax, description)
    let cases: Vec<(&str, String, &str)> = vec![
        ("Metadata", "12 ITERATIONS".into(), "after n iterations"),
        // `n UPDATES` is demonstrated on a traversal (SSSP), which quiesces
        // naturally — PageRank's float deltas shrink but never stop changing
        (
            "Metadata",
            "__SSSP_0_UPDATES__".into(),
            "when Ri updates ≤ n rows",
        ),
        (
            "Data",
            "SELECT Node FROM pr WHERE Rank > 0.01".into(),
            "when expr returns |R| rows",
        ),
        (
            "Data",
            "ANY SELECT Node FROM pr WHERE Rank > 0.8".into(),
            "when expr returns at least 1 row",
        ),
        (
            "Data",
            "SELECT SUM(Rank) FROM pr > 100.0".into(),
            "when expr compares against e",
        ),
        (
            "Delta",
            "DELTA SELECT pr.Node FROM pr JOIN prdelta ON pr.Node = prdelta.Node \
             WHERE pr.Rank - prdelta.Rank < 0.01"
                .into(),
            "when expr over Rdelta returns |R| rows",
        ),
        (
            "Delta",
            "ANY DELTA SELECT pr.Node FROM pr JOIN prdelta ON pr.Node = prdelta.Node \
             WHERE pr.Rank - prdelta.Rank < 0.0001"
                .into(),
            "when expr over Rdelta returns ≥ 1 row",
        ),
        (
            "Delta",
            "DELTA SELECT SUM(pr.Rank) - SUM(prdelta.Rank) FROM pr, prdelta < 0.05".into(),
            "when expr over Rdelta compares against e",
        ),
    ];

    let mut table = Table::new(&[
        "type",
        "Tc syntax",
        "satisfied after (iterations)",
        "meaning",
    ]);
    for (kind, tc, meaning) in cases {
        let sq = env.sqloop(SqloopConfig {
            mode: ExecutionMode::Single,
            max_rounds: 500,
            ..SqloopConfig::default()
        });
        let (query, shown_tc) = if tc == "__SSSP_0_UPDATES__" {
            (workloads::queries::sssp(0, 1), "0 UPDATES".to_string())
        } else {
            (pr_with_termination(&tc), tc.clone())
        };
        let report = sq
            .execute_detailed(&query)
            .unwrap_or_else(|e| panic!("Tc `{shown_tc}`: {e}"));
        table.row(vec![
            kind.into(),
            shown_tc,
            report.iterations.to_string(),
            meaning.into(),
        ]);
    }
    println!("{}", table.render());
    if let Some(p) = write_csv("table1_terminations", &table.to_csv()) {
        println!("  wrote {}", p.display());
    }
}
