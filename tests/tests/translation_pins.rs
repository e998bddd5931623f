//! The translated text of the statements SQLoop generates, pinned per
//! engine profile. Plan-cache keys, the pinned schedules and statement
//! counts all hang on these bytes, so a change to the parser, the renderer
//! or the dialect rules that alters any of them fails here first.

use dbcp::{Connection, Driver, LocalDriver};
use sqldb::{DataType, Database, DbError, DbResult, EngineProfile, IsolationLevel, StmtOutput};
use sqloop::analysis::{analyze, AnalysisOutcome};
use sqloop::common::{CteNames, CteSchema};
use sqloop::parallel_sql::SqlGen;
use sqloop::translate::translate_sql;
use sqloop::{ExecutionMode, SQLoop, SqloopConfig, SqloopError, SqloopQuery};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A connection that keeps every trait default — it refuses to prepare and
/// runs pipelines one statement at a time — so every text a run sends
/// reaches `execute`, where it is logged.
struct Recording {
    inner: Box<dyn Connection>,
    log: Arc<Mutex<Vec<String>>>,
}

impl Connection for Recording {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.log.lock().unwrap().push(sql.to_owned());
        self.inner.execute(sql)
    }

    fn begin(&mut self) -> DbResult<()> {
        self.inner.begin()
    }

    fn commit(&mut self) -> DbResult<()> {
        self.inner.commit()
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.inner.rollback()
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        self.inner.set_isolation(level)
    }

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }
}

struct RecordingDriver {
    inner: LocalDriver,
    log: Arc<Mutex<Vec<String>>>,
}

impl Driver for RecordingDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        Ok(Box::new(Recording {
            inner: self.inner.connect()?,
            log: Arc::clone(&self.log),
        }))
    }

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }
}

/// The texts a Single run of `query` sends in each of its `rounds` rounds:
/// those sent exactly `rounds` times, in the order first sent.
fn round_statements(profile: EngineProfile, query: &str, rounds: usize) -> Vec<String> {
    let db = Database::new(profile);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    s.execute("INSERT INTO edges VALUES (0, 1, 1.0), (1, 2, 0.5), (1, 0, 0.5), (2, 3, 1.0)")
        .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let driver = RecordingDriver {
        inner: LocalDriver::new(db),
        log: Arc::clone(&log),
    };
    let sqloop = SQLoop::new(Arc::new(driver)).with_config(SqloopConfig {
        mode: ExecutionMode::Single,
        ..SqloopConfig::default()
    });
    sqloop.execute(query).unwrap();
    let log = log.lock().unwrap();
    let mut sent: HashMap<&str, usize> = HashMap::new();
    for sql in log.iter() {
        *sent.entry(sql).or_default() += 1;
    }
    let mut out: Vec<String> = Vec::new();
    for sql in log.iter() {
        if sent[sql.as_str()] == rounds && !out.iter().any(|s| s == sql) {
            out.push(sql.clone());
        }
    }
    out
}

/// SqlGen for `query`'s iterative CTE, whose columns are `cols`.
fn sql_gen(query: &str, cols: [&str; 3], profile: EngineProfile) -> SqlGen {
    let cte = match sqloop::parse(query).unwrap() {
        SqloopQuery::Iterative(c) => c,
        other => panic!("not iterative: {other:?}"),
    };
    let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
    let plan = match analyze(&cte, &cols).unwrap() {
        AnalysisOutcome::Parallelizable(p) => p,
        AnalysisOutcome::NotParallelizable { reason } => panic!("{reason}"),
    };
    let schema = CteSchema {
        columns: cols,
        types: vec![DataType::Int, DataType::Float, DataType::Float],
    };
    SqlGen::new(CteNames::new("r"), schema, plan, 4, profile)
}

/// Every pinned text for `profile`, labelled.
fn corpus(profile: EngineProfile) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let sum = sql_gen(
        &workloads::queries::pagerank(10),
        ["node", "rank", "delta"],
        profile,
    );
    let min = sql_gen(
        &workloads::queries::sssp(0, 3),
        ["node", "distance", "delta"],
        profile,
    );
    let avg = sql_gen(
        &workloads::queries::pagerank(10).replace("SUM(", "AVG("),
        ["node", "rank", "delta"],
        profile,
    );
    for (what, mut g) in [("SUM", sum), ("MIN", min), ("AVG", avg)] {
        let compute = g.compute_task_sql(1, "r__msgslot_1_0", true).unwrap();
        for (i, sql) in compute.stmts.iter().enumerate() {
            out.push((format!("{what} compute {i}"), sql.to_string()));
        }
        let slots = ["r__msgslot_0_0", "r__msgslot_1_0", "r__msgslot_3_1"];
        let gather = g.gather_task_sql(2, &slots).unwrap();
        out.push((format!("{what} gather"), gather.to_string()));
    }
    // a Whole round's three statements (set-up's DROPs also repeat, at
    // clean-up)
    let whole = round_statements(profile, &workloads::queries::pagerank(2), 2);
    let whole = whole.into_iter().filter(|sql| !sql.starts_with("DROP"));
    for (i, sql) in whole.enumerate() {
        out.push((format!("whole {i}"), sql));
    }
    // reach from 0 adds nodes 1, 2 and 3 over three rounds, and a fourth
    // adds none: each of the two tasks' fills runs twice
    let union = "WITH RECURSIVE reach(node) AS (SELECT 0 UNION \
                 SELECT edges.dst FROM reach JOIN edges ON reach.node = edges.src) \
                 SELECT COUNT(*) FROM reach";
    for sql in round_statements(profile, union, 2) {
        if sql.contains("UNION ALL") {
            out.push(("union step".to_string(), sql));
        }
    }
    let scripts = [
        workloads::pagerank_script(),
        workloads::descendant_script(0, 3),
    ];
    for script in &scripts {
        let all = script
            .setup
            .iter()
            .chain(&script.per_iteration)
            .chain([&script.final_query])
            .chain(&script.teardown);
        for (i, sql) in all.enumerate() {
            let text = translate_sql(sql, profile).unwrap();
            out.push((format!("{} {i}", script.name), text));
        }
    }
    let sample = "UPDATE r SET delta = LEAST(delta, inc.val) \
                  FROM (SELECT id, MIN(val) AS val FROM m GROUP BY id) AS inc \
                  WHERE r.node = inc.id AND inc.val < Infinity";
    out.push(("sample".into(), translate_sql(sample, profile).unwrap()));
    out
}

/// What PostgreSQL gets.
const POSTGRES: &[(&str, &str)] = &[
    ("SUM compute 0", r#"DROP TABLE IF EXISTS "r__msgslot_1_0""#),
    (
        "SUM compute 1",
        r#"CREATE TABLE "r__msgslot_1_0" ("id" BIGINT, "val" DOUBLE PRECISION, "__to" BIGINT)"#,
    ),
    (
        "SUM compute 2",
        r#"CREATE INDEX IF NOT EXISTS "r__msgslot_1_0__ito" ON "r__msgslot_1_0" ("__to")"#,
    ),
    (
        "SUM compute 3",
        r#"INSERT INTO "r__msgslot_1_0" ("id", "val", "__to") SELECT "__e"."__dst" AS "id", SUM((0.85 * ("__s"."delta" * "__e"."weight"))) AS "val", ((("__e"."__dst" % 4) + 4) % 4) AS "__to" FROM "r__pt1" AS "__s" JOIN "r__mjoin" AS "__e" ON ("__e"."__src" = "__s"."node") WHERE ("__s"."delta" <> 0.0) GROUP BY "__e"."__dst""#,
    ),
    (
        "SUM compute 4",
        r#"SELECT DISTINCT "__to" FROM "r__msgslot_1_0""#,
    ),
    (
        "SUM compute 5",
        r#"UPDATE "r__pt1" SET "rank" = COALESCE(("rank" + "delta"), 0.15), "delta" = 0.0"#,
    ),
    (
        "SUM gather",
        r#"UPDATE "r__pt2" SET "delta" = ("delta" + "inc"."val") FROM (SELECT "id", SUM("val") AS "val" FROM (SELECT "id", "val" FROM "r__msgslot_0_0" WHERE ("__to" = 2) UNION ALL SELECT "id", "val" FROM "r__msgslot_1_0" WHERE ("__to" = 2) UNION ALL SELECT "id", "val" FROM "r__msgslot_3_1" WHERE ("__to" = 2)) AS "msgs" GROUP BY "id") AS "inc" WHERE ("r__pt2"."node" = "inc"."id")"#,
    ),
    ("MIN compute 0", r#"DROP TABLE IF EXISTS "r__msgslot_1_0""#),
    (
        "MIN compute 1",
        r#"CREATE TABLE "r__msgslot_1_0" ("id" BIGINT, "val" DOUBLE PRECISION, "__to" BIGINT)"#,
    ),
    (
        "MIN compute 2",
        r#"CREATE INDEX IF NOT EXISTS "r__msgslot_1_0__ito" ON "r__msgslot_1_0" ("__to")"#,
    ),
    (
        "MIN compute 3",
        r#"INSERT INTO "r__msgslot_1_0" ("id", "val", "__to") SELECT "__e"."__dst" AS "id", MIN(("__s"."delta" + "__e"."weight")) AS "val", ((("__e"."__dst" % 4) + 4) % 4) AS "__to" FROM "r__pt1" AS "__s" JOIN "r__mjoin" AS "__e" ON ("__e"."__src" = "__s"."node") WHERE (("__s"."delta" < "__s"."__sent") AND ("__s"."delta" < "__s"."distance")) GROUP BY "__e"."__dst""#,
    ),
    (
        "MIN compute 4",
        r#"SELECT DISTINCT "__to" FROM "r__msgslot_1_0""#,
    ),
    (
        "MIN compute 5",
        r#"UPDATE "r__pt1" SET "distance" = LEAST("distance", "delta"), "__sent" = "delta""#,
    ),
    (
        "MIN gather",
        r#"UPDATE "r__pt2" SET "delta" = LEAST("delta", "inc"."val") FROM (SELECT "id", MIN("val") AS "val" FROM (SELECT "id", "val" FROM "r__msgslot_0_0" WHERE ("__to" = 2) UNION ALL SELECT "id", "val" FROM "r__msgslot_1_0" WHERE ("__to" = 2) UNION ALL SELECT "id", "val" FROM "r__msgslot_3_1" WHERE ("__to" = 2)) AS "msgs" GROUP BY "id") AS "inc" WHERE ("r__pt2"."node" = "inc"."id")"#,
    ),
    ("AVG compute 0", r#"DROP TABLE IF EXISTS "r__msgslot_1_0""#),
    (
        "AVG compute 1",
        r#"CREATE TABLE "r__msgslot_1_0" ("id" BIGINT, "vsum" DOUBLE PRECISION, "vcnt" DOUBLE PRECISION, "__to" BIGINT)"#,
    ),
    (
        "AVG compute 2",
        r#"CREATE INDEX IF NOT EXISTS "r__msgslot_1_0__ito" ON "r__msgslot_1_0" ("__to")"#,
    ),
    (
        "AVG compute 3",
        r#"INSERT INTO "r__msgslot_1_0" ("id", "vsum", "vcnt", "__to") SELECT "__e"."__dst" AS "id", SUM((0.85 * ("__s"."delta" * "__e"."weight"))) AS "vsum", COUNT((0.85 * ("__s"."delta" * "__e"."weight"))) AS "vcnt", ((("__e"."__dst" % 4) + 4) % 4) AS "__to" FROM "r__pt1" AS "__s" JOIN "r__mjoin" AS "__e" ON ("__e"."__src" = "__s"."node") WHERE ("__s"."delta" <> 0.0) GROUP BY "__e"."__dst""#,
    ),
    (
        "AVG compute 4",
        r#"SELECT DISTINCT "__to" FROM "r__msgslot_1_0""#,
    ),
    (
        "AVG compute 5",
        r#"UPDATE "r__pt1" SET "rank" = COALESCE(("rank" + "delta"), 0.15), "delta" = 0.0, "__avg_sum" = 0.0, "__avg_cnt" = 0.0"#,
    ),
    (
        "AVG gather",
        r#"UPDATE "r__pt2" SET "__avg_sum" = ("__avg_sum" + "inc"."vsum"), "__avg_cnt" = ("__avg_cnt" + "inc"."vcnt"), "delta" = (("__avg_sum" + "inc"."vsum") / ("__avg_cnt" + "inc"."vcnt")) FROM (SELECT "id", SUM("vsum") AS "vsum", SUM("vcnt") AS "vcnt" FROM (SELECT "id", "vsum", "vcnt" FROM "r__msgslot_0_0" WHERE ("__to" = 2) UNION ALL SELECT "id", "vsum", "vcnt" FROM "r__msgslot_1_0" WHERE ("__to" = 2) UNION ALL SELECT "id", "vsum", "vcnt" FROM "r__msgslot_3_1" WHERE ("__to" = 2)) AS "msgs" GROUP BY "id") AS "inc" WHERE ("r__pt2"."node" = "inc"."id")"#,
    ),
    ("whole 0", r#"DELETE FROM "pagerank__tmp""#),
    (
        "whole 1",
        r#"INSERT INTO "pagerank__tmp" SELECT "pagerank"."node", COALESCE(("pagerank"."rank" + "pagerank"."delta"), 0.15), COALESCE((0.85 * SUM(("incomingrank"."delta" * "incomingedges"."weight"))), 0.0) FROM "pagerank" LEFT JOIN "edges" AS "incomingedges" ON ("pagerank"."node" = "incomingedges"."dst") LEFT JOIN "pagerank" AS "incomingrank" ON ("incomingrank"."node" = "incomingedges"."src") GROUP BY "pagerank"."node""#,
    ),
    (
        "whole 2",
        r#"UPDATE "pagerank" SET "rank" = "pagerank__tmp"."rank", "delta" = "pagerank__tmp"."delta" FROM "pagerank__tmp" WHERE ("pagerank"."node" = "pagerank__tmp"."node")"#,
    ),
    (
        "union step",
        r#"INSERT INTO "reach__w1" SELECT "reach__new"."node" FROM (SELECT "node" FROM (SELECT "reach__step"."node" AS "node", 0 AS "__in_r" FROM (SELECT "edges"."dst" AS "node" FROM "reach__w0" AS "reach" JOIN "edges" ON ("reach"."node" = "edges"."src")) AS "reach__step" UNION ALL SELECT "node", 1 FROM "reach" WHERE "node" IS NULL) AS "reach__all" GROUP BY "node" HAVING MAX("__in_r") = 0) AS "reach__new" LEFT JOIN "reach" ON "reach__new"."node" = "reach"."node" WHERE "reach"."node" IS NULL"#,
    ),
    (
        "union step",
        r#"INSERT INTO "reach__w0" SELECT "reach__new"."node" FROM (SELECT "node" FROM (SELECT "reach__step"."node" AS "node", 0 AS "__in_r" FROM (SELECT "edges"."dst" AS "node" FROM "reach__w1" AS "reach" JOIN "edges" ON ("reach"."node" = "edges"."src")) AS "reach__step" UNION ALL SELECT "node", 1 FROM "reach" WHERE "node" IS NULL) AS "reach__all" GROUP BY "node" HAVING MAX("__in_r") = 0) AS "reach__new" LEFT JOIN "reach" ON "reach__new"."node" = "reach"."node" WHERE "reach"."node" IS NULL"#,
    ),
    ("pagerank-script 0", r#"DROP TABLE IF EXISTS "pr_s""#),
    (
        "pagerank-script 1",
        r#"CREATE TABLE "pr_s" ("node" BIGINT, "rank" DOUBLE PRECISION, "delta" DOUBLE PRECISION)"#,
    ),
    (
        "pagerank-script 2",
        r#"INSERT INTO "pr_s" SELECT "src", 0.0, 0.15 FROM (SELECT "src" FROM "edges" UNION SELECT "dst" FROM "edges") AS "alledges" GROUP BY "src""#,
    ),
    ("pagerank-script 3", r#"DROP TABLE IF EXISTS "pr_s_tmp""#),
    (
        "pagerank-script 4",
        r#"CREATE TABLE "pr_s_tmp" ("node" BIGINT, "rank" DOUBLE PRECISION, "delta" DOUBLE PRECISION)"#,
    ),
    (
        "pagerank-script 5",
        r#"INSERT INTO "pr_s_tmp" SELECT "pr_s"."node", COALESCE(("pr_s"."rank" + "pr_s"."delta"), 0.15), COALESCE((0.85 * SUM(("ir"."delta" * "ie"."weight"))), 0.0) FROM "pr_s" LEFT JOIN "edges" AS "ie" ON ("pr_s"."node" = "ie"."dst") LEFT JOIN "pr_s" AS "ir" ON ("ir"."node" = "ie"."src") GROUP BY "pr_s"."node""#,
    ),
    (
        "pagerank-script 6",
        r#"UPDATE "pr_s" SET "rank" = "pr_s_tmp"."rank", "delta" = "pr_s_tmp"."delta" FROM "pr_s_tmp" WHERE ("pr_s"."node" = "pr_s_tmp"."node")"#,
    ),
    ("pagerank-script 7", r#"DROP TABLE "pr_s_tmp""#),
    (
        "pagerank-script 8",
        r#"SELECT "node", "rank" FROM "pr_s" ORDER BY "node""#,
    ),
    ("pagerank-script 9", r#"DROP TABLE IF EXISTS "pr_s""#),
    ("descendant-script 0", r#"DROP TABLE IF EXISTS "dq_s""#),
    (
        "descendant-script 1",
        r#"CREATE TABLE "dq_s" ("node" BIGINT, "hops" DOUBLE PRECISION, "delta" DOUBLE PRECISION)"#,
    ),
    (
        "descendant-script 2",
        r#"INSERT INTO "dq_s" SELECT "src", Infinity, CASE WHEN ("src" = 0) THEN 0.0 ELSE Infinity END FROM (SELECT "src" FROM "edges" UNION SELECT "dst" FROM "edges") AS "alledges" GROUP BY "src""#,
    ),
    ("descendant-script 3", r#"DROP TABLE IF EXISTS "dq_s_tmp""#),
    (
        "descendant-script 4",
        r#"CREATE TABLE "dq_s_tmp" ("node" BIGINT, "hops" DOUBLE PRECISION, "delta" DOUBLE PRECISION)"#,
    ),
    (
        "descendant-script 5",
        r#"INSERT INTO "dq_s_tmp" SELECT "dq_s"."node", LEAST("dq_s"."hops", "dq_s"."delta"), COALESCE(MIN(("nb"."delta" + 1.0)), Infinity) FROM "dq_s" LEFT JOIN "edges" AS "ie" ON ("dq_s"."node" = "ie"."dst") LEFT JOIN "dq_s" AS "nb" ON ("nb"."node" = "ie"."src") WHERE (("nb"."delta" < "nb"."hops") OR ("dq_s"."delta" < "dq_s"."hops")) GROUP BY "dq_s"."node""#,
    ),
    (
        "descendant-script 6",
        r#"UPDATE "dq_s" SET "hops" = "dq_s_tmp"."hops", "delta" = "dq_s_tmp"."delta" FROM "dq_s_tmp" WHERE ("dq_s"."node" = "dq_s_tmp"."node")"#,
    ),
    ("descendant-script 7", r#"DROP TABLE "dq_s_tmp""#),
    (
        "descendant-script 8",
        r#"SELECT "hops" FROM "dq_s" WHERE ("node" = 3)"#,
    ),
    ("descendant-script 9", r#"DROP TABLE IF EXISTS "dq_s""#),
    (
        "sample",
        r#"UPDATE "r" SET "delta" = LEAST("delta", "inc"."val") FROM (SELECT "id", MIN("val") AS "val" FROM "m" GROUP BY "id") AS "inc" WHERE (("r"."node" = "inc"."id") AND ("inc"."val" < Infinity))"#,
    ),
];

/// What MySQL gets.
const MYSQL: &[(&str, &str)] = &[
    ("SUM compute 0", r#"DROP TABLE IF EXISTS `r__msgslot_1_0`"#),
    (
        "SUM compute 1",
        r#"CREATE TABLE `r__msgslot_1_0` (`id` BIGINT, `val` DOUBLE, `__to` BIGINT)"#,
    ),
    (
        "SUM compute 2",
        r#"CREATE INDEX IF NOT EXISTS `r__msgslot_1_0__ito` ON `r__msgslot_1_0` (`__to`)"#,
    ),
    (
        "SUM compute 3",
        r#"INSERT INTO `r__msgslot_1_0` (`id`, `val`, `__to`) SELECT `__e`.`__dst` AS `id`, SUM((0.85 * (`__s`.`delta` * `__e`.`weight`))) AS `val`, (((`__e`.`__dst` % 4) + 4) % 4) AS `__to` FROM `r__pt1` AS `__s` JOIN `r__mjoin` AS `__e` ON (`__e`.`__src` = `__s`.`node`) WHERE (`__s`.`delta` <> 0.0) GROUP BY `__e`.`__dst`"#,
    ),
    (
        "SUM compute 4",
        r#"SELECT DISTINCT `__to` FROM `r__msgslot_1_0`"#,
    ),
    (
        "SUM compute 5",
        r#"UPDATE `r__pt1` SET `rank` = COALESCE((`rank` + `delta`), 0.15), `delta` = 0.0"#,
    ),
    (
        "SUM gather",
        r#"UPDATE `r__pt2` JOIN (SELECT `id`, SUM(`val`) AS `val` FROM (SELECT `id`, `val` FROM `r__msgslot_0_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_1_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_3_1` WHERE (`__to` = 2)) AS `msgs` GROUP BY `id`) AS `inc` ON (`r__pt2`.`node` = `inc`.`id`) SET `delta` = (`delta` + `inc`.`val`)"#,
    ),
    ("MIN compute 0", r#"DROP TABLE IF EXISTS `r__msgslot_1_0`"#),
    (
        "MIN compute 1",
        r#"CREATE TABLE `r__msgslot_1_0` (`id` BIGINT, `val` DOUBLE, `__to` BIGINT)"#,
    ),
    (
        "MIN compute 2",
        r#"CREATE INDEX IF NOT EXISTS `r__msgslot_1_0__ito` ON `r__msgslot_1_0` (`__to`)"#,
    ),
    (
        "MIN compute 3",
        r#"INSERT INTO `r__msgslot_1_0` (`id`, `val`, `__to`) SELECT `__e`.`__dst` AS `id`, MIN((`__s`.`delta` + `__e`.`weight`)) AS `val`, (((`__e`.`__dst` % 4) + 4) % 4) AS `__to` FROM `r__pt1` AS `__s` JOIN `r__mjoin` AS `__e` ON (`__e`.`__src` = `__s`.`node`) WHERE ((`__s`.`delta` < `__s`.`__sent`) AND (`__s`.`delta` < `__s`.`distance`)) GROUP BY `__e`.`__dst`"#,
    ),
    (
        "MIN compute 4",
        r#"SELECT DISTINCT `__to` FROM `r__msgslot_1_0`"#,
    ),
    (
        "MIN compute 5",
        r#"UPDATE `r__pt1` SET `distance` = LEAST(`distance`, `delta`), `__sent` = `delta`"#,
    ),
    (
        "MIN gather",
        r#"UPDATE `r__pt2` JOIN (SELECT `id`, MIN(`val`) AS `val` FROM (SELECT `id`, `val` FROM `r__msgslot_0_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_1_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_3_1` WHERE (`__to` = 2)) AS `msgs` GROUP BY `id`) AS `inc` ON (`r__pt2`.`node` = `inc`.`id`) SET `delta` = LEAST(`delta`, `inc`.`val`)"#,
    ),
    ("AVG compute 0", r#"DROP TABLE IF EXISTS `r__msgslot_1_0`"#),
    (
        "AVG compute 1",
        r#"CREATE TABLE `r__msgslot_1_0` (`id` BIGINT, `vsum` DOUBLE, `vcnt` DOUBLE, `__to` BIGINT)"#,
    ),
    (
        "AVG compute 2",
        r#"CREATE INDEX IF NOT EXISTS `r__msgslot_1_0__ito` ON `r__msgslot_1_0` (`__to`)"#,
    ),
    (
        "AVG compute 3",
        r#"INSERT INTO `r__msgslot_1_0` (`id`, `vsum`, `vcnt`, `__to`) SELECT `__e`.`__dst` AS `id`, SUM((0.85 * (`__s`.`delta` * `__e`.`weight`))) AS `vsum`, COUNT((0.85 * (`__s`.`delta` * `__e`.`weight`))) AS `vcnt`, (((`__e`.`__dst` % 4) + 4) % 4) AS `__to` FROM `r__pt1` AS `__s` JOIN `r__mjoin` AS `__e` ON (`__e`.`__src` = `__s`.`node`) WHERE (`__s`.`delta` <> 0.0) GROUP BY `__e`.`__dst`"#,
    ),
    (
        "AVG compute 4",
        r#"SELECT DISTINCT `__to` FROM `r__msgslot_1_0`"#,
    ),
    (
        "AVG compute 5",
        r#"UPDATE `r__pt1` SET `rank` = COALESCE((`rank` + `delta`), 0.15), `delta` = 0.0, `__avg_sum` = 0.0, `__avg_cnt` = 0.0"#,
    ),
    (
        "AVG gather",
        r#"UPDATE `r__pt2` JOIN (SELECT `id`, SUM(`vsum`) AS `vsum`, SUM(`vcnt`) AS `vcnt` FROM (SELECT `id`, `vsum`, `vcnt` FROM `r__msgslot_0_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `vsum`, `vcnt` FROM `r__msgslot_1_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `vsum`, `vcnt` FROM `r__msgslot_3_1` WHERE (`__to` = 2)) AS `msgs` GROUP BY `id`) AS `inc` ON (`r__pt2`.`node` = `inc`.`id`) SET `__avg_sum` = (`__avg_sum` + `inc`.`vsum`), `__avg_cnt` = (`__avg_cnt` + `inc`.`vcnt`), `delta` = ((`__avg_sum` + `inc`.`vsum`) / (`__avg_cnt` + `inc`.`vcnt`))"#,
    ),
    ("whole 0", r#"DELETE FROM `pagerank__tmp`"#),
    (
        "whole 1",
        r#"INSERT INTO `pagerank__tmp` SELECT `pagerank`.`node`, COALESCE((`pagerank`.`rank` + `pagerank`.`delta`), 0.15), COALESCE((0.85 * SUM((`incomingrank`.`delta` * `incomingedges`.`weight`))), 0.0) FROM `pagerank` LEFT JOIN `edges` AS `incomingedges` ON (`pagerank`.`node` = `incomingedges`.`dst`) LEFT JOIN `pagerank` AS `incomingrank` ON (`incomingrank`.`node` = `incomingedges`.`src`) GROUP BY `pagerank`.`node`"#,
    ),
    (
        "whole 2",
        r#"UPDATE `pagerank` JOIN `pagerank__tmp` ON (`pagerank`.`node` = `pagerank__tmp`.`node`) SET `rank` = `pagerank__tmp`.`rank`, `delta` = `pagerank__tmp`.`delta`"#,
    ),
    (
        "union step",
        r#"INSERT INTO `reach__w1` SELECT `reach__new`.`node` FROM (SELECT `node` FROM (SELECT `reach__step`.`node` AS `node`, 0 AS `__in_r` FROM (SELECT `edges`.`dst` AS `node` FROM `reach__w0` AS `reach` JOIN `edges` ON (`reach`.`node` = `edges`.`src`)) AS `reach__step` UNION ALL SELECT `node`, 1 FROM `reach` WHERE `node` IS NULL) AS `reach__all` GROUP BY `node` HAVING MAX(`__in_r`) = 0) AS `reach__new` LEFT JOIN `reach` ON `reach__new`.`node` = `reach`.`node` WHERE `reach`.`node` IS NULL"#,
    ),
    (
        "union step",
        r#"INSERT INTO `reach__w0` SELECT `reach__new`.`node` FROM (SELECT `node` FROM (SELECT `reach__step`.`node` AS `node`, 0 AS `__in_r` FROM (SELECT `edges`.`dst` AS `node` FROM `reach__w1` AS `reach` JOIN `edges` ON (`reach`.`node` = `edges`.`src`)) AS `reach__step` UNION ALL SELECT `node`, 1 FROM `reach` WHERE `node` IS NULL) AS `reach__all` GROUP BY `node` HAVING MAX(`__in_r`) = 0) AS `reach__new` LEFT JOIN `reach` ON `reach__new`.`node` = `reach`.`node` WHERE `reach`.`node` IS NULL"#,
    ),
    ("pagerank-script 0", r#"DROP TABLE IF EXISTS `pr_s`"#),
    (
        "pagerank-script 1",
        r#"CREATE TABLE `pr_s` (`node` BIGINT, `rank` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "pagerank-script 2",
        r#"INSERT INTO `pr_s` SELECT `src`, 0.0, 0.15 FROM (SELECT `src` FROM `edges` UNION SELECT `dst` FROM `edges`) AS `alledges` GROUP BY `src`"#,
    ),
    ("pagerank-script 3", r#"DROP TABLE IF EXISTS `pr_s_tmp`"#),
    (
        "pagerank-script 4",
        r#"CREATE TABLE `pr_s_tmp` (`node` BIGINT, `rank` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "pagerank-script 5",
        r#"INSERT INTO `pr_s_tmp` SELECT `pr_s`.`node`, COALESCE((`pr_s`.`rank` + `pr_s`.`delta`), 0.15), COALESCE((0.85 * SUM((`ir`.`delta` * `ie`.`weight`))), 0.0) FROM `pr_s` LEFT JOIN `edges` AS `ie` ON (`pr_s`.`node` = `ie`.`dst`) LEFT JOIN `pr_s` AS `ir` ON (`ir`.`node` = `ie`.`src`) GROUP BY `pr_s`.`node`"#,
    ),
    (
        "pagerank-script 6",
        r#"UPDATE `pr_s` JOIN `pr_s_tmp` ON (`pr_s`.`node` = `pr_s_tmp`.`node`) SET `rank` = `pr_s_tmp`.`rank`, `delta` = `pr_s_tmp`.`delta`"#,
    ),
    ("pagerank-script 7", r#"DROP TABLE `pr_s_tmp`"#),
    (
        "pagerank-script 8",
        r#"SELECT `node`, `rank` FROM `pr_s` ORDER BY `node`"#,
    ),
    ("pagerank-script 9", r#"DROP TABLE IF EXISTS `pr_s`"#),
    ("descendant-script 0", r#"DROP TABLE IF EXISTS `dq_s`"#),
    (
        "descendant-script 1",
        r#"CREATE TABLE `dq_s` (`node` BIGINT, `hops` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "descendant-script 2",
        r#"INSERT INTO `dq_s` SELECT `src`, 1e308, CASE WHEN (`src` = 0) THEN 0.0 ELSE 1e308 END FROM (SELECT `src` FROM `edges` UNION SELECT `dst` FROM `edges`) AS `alledges` GROUP BY `src`"#,
    ),
    ("descendant-script 3", r#"DROP TABLE IF EXISTS `dq_s_tmp`"#),
    (
        "descendant-script 4",
        r#"CREATE TABLE `dq_s_tmp` (`node` BIGINT, `hops` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "descendant-script 5",
        r#"INSERT INTO `dq_s_tmp` SELECT `dq_s`.`node`, LEAST(`dq_s`.`hops`, `dq_s`.`delta`), COALESCE(MIN((`nb`.`delta` + 1.0)), 1e308) FROM `dq_s` LEFT JOIN `edges` AS `ie` ON (`dq_s`.`node` = `ie`.`dst`) LEFT JOIN `dq_s` AS `nb` ON (`nb`.`node` = `ie`.`src`) WHERE ((`nb`.`delta` < `nb`.`hops`) OR (`dq_s`.`delta` < `dq_s`.`hops`)) GROUP BY `dq_s`.`node`"#,
    ),
    (
        "descendant-script 6",
        r#"UPDATE `dq_s` JOIN `dq_s_tmp` ON (`dq_s`.`node` = `dq_s_tmp`.`node`) SET `hops` = `dq_s_tmp`.`hops`, `delta` = `dq_s_tmp`.`delta`"#,
    ),
    ("descendant-script 7", r#"DROP TABLE `dq_s_tmp`"#),
    (
        "descendant-script 8",
        r#"SELECT `hops` FROM `dq_s` WHERE (`node` = 3)"#,
    ),
    ("descendant-script 9", r#"DROP TABLE IF EXISTS `dq_s`"#),
    (
        "sample",
        r#"UPDATE `r` JOIN (SELECT `id`, MIN(`val`) AS `val` FROM `m` GROUP BY `id`) AS `inc` ON ((`r`.`node` = `inc`.`id`) AND (`inc`.`val` < 1e308)) SET `delta` = LEAST(`delta`, `inc`.`val`)"#,
    ),
];

/// What MariaDB gets.
const MARIADB: &[(&str, &str)] = &[
    ("SUM compute 0", r#"DROP TABLE IF EXISTS `r__msgslot_1_0`"#),
    (
        "SUM compute 1",
        r#"CREATE TABLE `r__msgslot_1_0` (`id` BIGINT, `val` DOUBLE, `__to` BIGINT)"#,
    ),
    (
        "SUM compute 2",
        r#"CREATE INDEX IF NOT EXISTS `r__msgslot_1_0__ito` ON `r__msgslot_1_0` (`__to`)"#,
    ),
    (
        "SUM compute 3",
        r#"INSERT INTO `r__msgslot_1_0` (`id`, `val`, `__to`) SELECT `__e`.`__dst` AS `id`, SUM((0.85 * (`__s`.`delta` * `__e`.`weight`))) AS `val`, (((`__e`.`__dst` % 4) + 4) % 4) AS `__to` FROM `r__pt1` AS `__s` JOIN `r__mjoin` AS `__e` ON (`__e`.`__src` = `__s`.`node`) WHERE (`__s`.`delta` <> 0.0) GROUP BY `__e`.`__dst`"#,
    ),
    (
        "SUM compute 4",
        r#"SELECT DISTINCT `__to` FROM `r__msgslot_1_0`"#,
    ),
    (
        "SUM compute 5",
        r#"UPDATE `r__pt1` SET `rank` = COALESCE((`rank` + `delta`), 0.15), `delta` = 0.0"#,
    ),
    (
        "SUM gather",
        r#"UPDATE `r__pt2` JOIN (SELECT `id`, SUM(`val`) AS `val` FROM (SELECT `id`, `val` FROM `r__msgslot_0_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_1_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_3_1` WHERE (`__to` = 2)) AS `msgs` GROUP BY `id`) AS `inc` ON (`r__pt2`.`node` = `inc`.`id`) SET `delta` = (`delta` + `inc`.`val`)"#,
    ),
    ("MIN compute 0", r#"DROP TABLE IF EXISTS `r__msgslot_1_0`"#),
    (
        "MIN compute 1",
        r#"CREATE TABLE `r__msgslot_1_0` (`id` BIGINT, `val` DOUBLE, `__to` BIGINT)"#,
    ),
    (
        "MIN compute 2",
        r#"CREATE INDEX IF NOT EXISTS `r__msgslot_1_0__ito` ON `r__msgslot_1_0` (`__to`)"#,
    ),
    (
        "MIN compute 3",
        r#"INSERT INTO `r__msgslot_1_0` (`id`, `val`, `__to`) SELECT `__e`.`__dst` AS `id`, MIN((`__s`.`delta` + `__e`.`weight`)) AS `val`, (((`__e`.`__dst` % 4) + 4) % 4) AS `__to` FROM `r__pt1` AS `__s` JOIN `r__mjoin` AS `__e` ON (`__e`.`__src` = `__s`.`node`) WHERE ((`__s`.`delta` < `__s`.`__sent`) AND (`__s`.`delta` < `__s`.`distance`)) GROUP BY `__e`.`__dst`"#,
    ),
    (
        "MIN compute 4",
        r#"SELECT DISTINCT `__to` FROM `r__msgslot_1_0`"#,
    ),
    (
        "MIN compute 5",
        r#"UPDATE `r__pt1` SET `distance` = LEAST(`distance`, `delta`), `__sent` = `delta`"#,
    ),
    (
        "MIN gather",
        r#"UPDATE `r__pt2` JOIN (SELECT `id`, MIN(`val`) AS `val` FROM (SELECT `id`, `val` FROM `r__msgslot_0_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_1_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `val` FROM `r__msgslot_3_1` WHERE (`__to` = 2)) AS `msgs` GROUP BY `id`) AS `inc` ON (`r__pt2`.`node` = `inc`.`id`) SET `delta` = LEAST(`delta`, `inc`.`val`)"#,
    ),
    ("AVG compute 0", r#"DROP TABLE IF EXISTS `r__msgslot_1_0`"#),
    (
        "AVG compute 1",
        r#"CREATE TABLE `r__msgslot_1_0` (`id` BIGINT, `vsum` DOUBLE, `vcnt` DOUBLE, `__to` BIGINT)"#,
    ),
    (
        "AVG compute 2",
        r#"CREATE INDEX IF NOT EXISTS `r__msgslot_1_0__ito` ON `r__msgslot_1_0` (`__to`)"#,
    ),
    (
        "AVG compute 3",
        r#"INSERT INTO `r__msgslot_1_0` (`id`, `vsum`, `vcnt`, `__to`) SELECT `__e`.`__dst` AS `id`, SUM((0.85 * (`__s`.`delta` * `__e`.`weight`))) AS `vsum`, COUNT((0.85 * (`__s`.`delta` * `__e`.`weight`))) AS `vcnt`, (((`__e`.`__dst` % 4) + 4) % 4) AS `__to` FROM `r__pt1` AS `__s` JOIN `r__mjoin` AS `__e` ON (`__e`.`__src` = `__s`.`node`) WHERE (`__s`.`delta` <> 0.0) GROUP BY `__e`.`__dst`"#,
    ),
    (
        "AVG compute 4",
        r#"SELECT DISTINCT `__to` FROM `r__msgslot_1_0`"#,
    ),
    (
        "AVG compute 5",
        r#"UPDATE `r__pt1` SET `rank` = COALESCE((`rank` + `delta`), 0.15), `delta` = 0.0, `__avg_sum` = 0.0, `__avg_cnt` = 0.0"#,
    ),
    (
        "AVG gather",
        r#"UPDATE `r__pt2` JOIN (SELECT `id`, SUM(`vsum`) AS `vsum`, SUM(`vcnt`) AS `vcnt` FROM (SELECT `id`, `vsum`, `vcnt` FROM `r__msgslot_0_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `vsum`, `vcnt` FROM `r__msgslot_1_0` WHERE (`__to` = 2) UNION ALL SELECT `id`, `vsum`, `vcnt` FROM `r__msgslot_3_1` WHERE (`__to` = 2)) AS `msgs` GROUP BY `id`) AS `inc` ON (`r__pt2`.`node` = `inc`.`id`) SET `__avg_sum` = (`__avg_sum` + `inc`.`vsum`), `__avg_cnt` = (`__avg_cnt` + `inc`.`vcnt`), `delta` = ((`__avg_sum` + `inc`.`vsum`) / (`__avg_cnt` + `inc`.`vcnt`))"#,
    ),
    ("whole 0", r#"DELETE FROM `pagerank__tmp`"#),
    (
        "whole 1",
        r#"INSERT INTO `pagerank__tmp` SELECT `pagerank`.`node`, COALESCE((`pagerank`.`rank` + `pagerank`.`delta`), 0.15), COALESCE((0.85 * SUM((`incomingrank`.`delta` * `incomingedges`.`weight`))), 0.0) FROM `pagerank` LEFT JOIN `edges` AS `incomingedges` ON (`pagerank`.`node` = `incomingedges`.`dst`) LEFT JOIN `pagerank` AS `incomingrank` ON (`incomingrank`.`node` = `incomingedges`.`src`) GROUP BY `pagerank`.`node`"#,
    ),
    (
        "whole 2",
        r#"UPDATE `pagerank` JOIN `pagerank__tmp` ON (`pagerank`.`node` = `pagerank__tmp`.`node`) SET `rank` = `pagerank__tmp`.`rank`, `delta` = `pagerank__tmp`.`delta`"#,
    ),
    (
        "union step",
        r#"INSERT INTO `reach__w1` SELECT `reach__new`.`node` FROM (SELECT `node` FROM (SELECT `reach__step`.`node` AS `node`, 0 AS `__in_r` FROM (SELECT `edges`.`dst` AS `node` FROM `reach__w0` AS `reach` JOIN `edges` ON (`reach`.`node` = `edges`.`src`)) AS `reach__step` UNION ALL SELECT `node`, 1 FROM `reach` WHERE `node` IS NULL) AS `reach__all` GROUP BY `node` HAVING MAX(`__in_r`) = 0) AS `reach__new` LEFT JOIN `reach` ON `reach__new`.`node` = `reach`.`node` WHERE `reach`.`node` IS NULL"#,
    ),
    (
        "union step",
        r#"INSERT INTO `reach__w0` SELECT `reach__new`.`node` FROM (SELECT `node` FROM (SELECT `reach__step`.`node` AS `node`, 0 AS `__in_r` FROM (SELECT `edges`.`dst` AS `node` FROM `reach__w1` AS `reach` JOIN `edges` ON (`reach`.`node` = `edges`.`src`)) AS `reach__step` UNION ALL SELECT `node`, 1 FROM `reach` WHERE `node` IS NULL) AS `reach__all` GROUP BY `node` HAVING MAX(`__in_r`) = 0) AS `reach__new` LEFT JOIN `reach` ON `reach__new`.`node` = `reach`.`node` WHERE `reach`.`node` IS NULL"#,
    ),
    ("pagerank-script 0", r#"DROP TABLE IF EXISTS `pr_s`"#),
    (
        "pagerank-script 1",
        r#"CREATE TABLE `pr_s` (`node` BIGINT, `rank` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "pagerank-script 2",
        r#"INSERT INTO `pr_s` SELECT `src`, 0.0, 0.15 FROM (SELECT `src` FROM `edges` UNION SELECT `dst` FROM `edges`) AS `alledges` GROUP BY `src`"#,
    ),
    ("pagerank-script 3", r#"DROP TABLE IF EXISTS `pr_s_tmp`"#),
    (
        "pagerank-script 4",
        r#"CREATE TABLE `pr_s_tmp` (`node` BIGINT, `rank` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "pagerank-script 5",
        r#"INSERT INTO `pr_s_tmp` SELECT `pr_s`.`node`, COALESCE((`pr_s`.`rank` + `pr_s`.`delta`), 0.15), COALESCE((0.85 * SUM((`ir`.`delta` * `ie`.`weight`))), 0.0) FROM `pr_s` LEFT JOIN `edges` AS `ie` ON (`pr_s`.`node` = `ie`.`dst`) LEFT JOIN `pr_s` AS `ir` ON (`ir`.`node` = `ie`.`src`) GROUP BY `pr_s`.`node`"#,
    ),
    (
        "pagerank-script 6",
        r#"UPDATE `pr_s` JOIN `pr_s_tmp` ON (`pr_s`.`node` = `pr_s_tmp`.`node`) SET `rank` = `pr_s_tmp`.`rank`, `delta` = `pr_s_tmp`.`delta`"#,
    ),
    ("pagerank-script 7", r#"DROP TABLE `pr_s_tmp`"#),
    (
        "pagerank-script 8",
        r#"SELECT `node`, `rank` FROM `pr_s` ORDER BY `node`"#,
    ),
    ("pagerank-script 9", r#"DROP TABLE IF EXISTS `pr_s`"#),
    ("descendant-script 0", r#"DROP TABLE IF EXISTS `dq_s`"#),
    (
        "descendant-script 1",
        r#"CREATE TABLE `dq_s` (`node` BIGINT, `hops` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "descendant-script 2",
        r#"INSERT INTO `dq_s` SELECT `src`, 1e308, CASE WHEN (`src` = 0) THEN 0.0 ELSE 1e308 END FROM (SELECT `src` FROM `edges` UNION SELECT `dst` FROM `edges`) AS `alledges` GROUP BY `src`"#,
    ),
    ("descendant-script 3", r#"DROP TABLE IF EXISTS `dq_s_tmp`"#),
    (
        "descendant-script 4",
        r#"CREATE TABLE `dq_s_tmp` (`node` BIGINT, `hops` DOUBLE, `delta` DOUBLE)"#,
    ),
    (
        "descendant-script 5",
        r#"INSERT INTO `dq_s_tmp` SELECT `dq_s`.`node`, LEAST(`dq_s`.`hops`, `dq_s`.`delta`), COALESCE(MIN((`nb`.`delta` + 1.0)), 1e308) FROM `dq_s` LEFT JOIN `edges` AS `ie` ON (`dq_s`.`node` = `ie`.`dst`) LEFT JOIN `dq_s` AS `nb` ON (`nb`.`node` = `ie`.`src`) WHERE ((`nb`.`delta` < `nb`.`hops`) OR (`dq_s`.`delta` < `dq_s`.`hops`)) GROUP BY `dq_s`.`node`"#,
    ),
    (
        "descendant-script 6",
        r#"UPDATE `dq_s` JOIN `dq_s_tmp` ON (`dq_s`.`node` = `dq_s_tmp`.`node`) SET `hops` = `dq_s_tmp`.`hops`, `delta` = `dq_s_tmp`.`delta`"#,
    ),
    ("descendant-script 7", r#"DROP TABLE `dq_s_tmp`"#),
    (
        "descendant-script 8",
        r#"SELECT `hops` FROM `dq_s` WHERE (`node` = 3)"#,
    ),
    ("descendant-script 9", r#"DROP TABLE IF EXISTS `dq_s`"#),
    (
        "sample",
        r#"UPDATE `r` JOIN (SELECT `id`, MIN(`val`) AS `val` FROM `m` GROUP BY `id`) AS `inc` ON ((`r`.`node` = `inc`.`id`) AND (`inc`.`val` < 1e308)) SET `delta` = LEAST(`delta`, `inc`.`val`)"#,
    ),
];

#[test]
fn generated_statements_translate_to_the_pinned_text_on_every_profile() {
    let profiles = [
        (EngineProfile::Postgres, POSTGRES),
        (EngineProfile::MySql, MYSQL),
        (EngineProfile::MariaDb, MARIADB),
    ];
    for (profile, pinned) in profiles {
        let got = corpus(profile);
        let labels: Vec<&str> = got.iter().map(|(label, _)| label.as_str()).collect();
        let pinned_labels: Vec<&str> = pinned.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels, pinned_labels, "{profile}");
        for ((label, sql), (_, expected)) in got.iter().zip(pinned) {
            assert_eq!(sql, expected, "{profile} / {label}");
        }
    }
}

/// MySQL's join-update names one table or subquery. An `UPDATE … FROM`
/// over a join or a list has no such spelling, so it must fail by name and
/// leave the target as it was, never update rows the FROM list filters out
/// by dropping part of that list.
#[test]
fn an_update_from_several_relations_fails_on_the_mysql_family() {
    for profile in [EngineProfile::MySql, EngineProfile::MariaDb] {
        let db = Database::new(profile);
        let mut s = db.connect();
        for sql in [
            "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)",
            "CREATE TABLE a (id INT PRIMARY KEY, v FLOAT)",
            "CREATE TABLE b (id INT PRIMARY KEY)",
            "INSERT INTO t VALUES (1, 0.0), (2, 0.0)",
            "INSERT INTO a VALUES (1, 1.0), (2, 2.0)",
            "INSERT INTO b VALUES (1)",
        ] {
            s.execute(sql).unwrap();
        }
        let sqloop = SQLoop::new(Arc::new(LocalDriver::new(db.clone())));
        for sql in [
            "UPDATE t SET v = a.v FROM a JOIN b ON a.id = b.id WHERE t.id = a.id",
            "UPDATE t SET v = a.v FROM a, b WHERE t.id = a.id AND a.id = b.id",
        ] {
            match sqloop.execute(sql) {
                Err(SqloopError::Db(DbError::Unsupported(msg))) => {
                    assert!(msg.contains("UPDATE … SET … FROM"), "{profile}: {msg}")
                }
                other => panic!("{profile}: {sql}: {other:?}"),
            }
            let rows = s.query("SELECT id, v FROM t ORDER BY id").unwrap().rows;
            let v: Vec<f64> = rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
            assert_eq!(v, [0.0, 0.0], "{profile}: {sql}");
        }
        // one relation keeps the join form
        sqloop
            .execute("UPDATE t SET v = a.v FROM a WHERE t.id = a.id")
            .unwrap();
        let rows = s.query("SELECT v FROM t ORDER BY id").unwrap().rows;
        assert_eq!(rows[1][0].as_f64(), Some(2.0), "{profile}");
    }
}
