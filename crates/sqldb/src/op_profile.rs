//! Runtime operator profiling: per-operator rows-out / next-calls /
//! elapsed counters collected during execution, rendered as the plan tree
//! `EXPLAIN` prints — but with actuals.
//!
//! The executor materializes phase by phase (scan → join → filter →
//! aggregate → distinct → sort/limit), so the profiler is a small stack
//! machine mirroring that bottom-up order: producers push [`leaf`]
//! nodes, consumers [`wrap`] the nodes their inputs just pushed. The
//! `calls` field counts rows *pulled from inputs* — the volcano
//! `next()`-call equivalent for a materializing executor.
//!
//! A profiler handle is `Option<&OpProfiler>` on the executor; every
//! instrumentation site is behind `prof.is_some()`, so the disabled cost
//! is one branch per phase, not per row.
//!
//! [`leaf`]: OpProfiler::leaf
//! [`wrap`]: OpProfiler::wrap

use std::cell::RefCell;

/// One profiled operator with its actuals and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpNode {
    /// Operator label, matching the `EXPLAIN` vocabulary
    /// (`SeqScan t`, `HashJoin`, `Filter`, …).
    pub label: String,
    /// Rows this operator produced.
    pub rows_out: u64,
    /// Rows pulled from inputs (volcano next-call equivalent); for leaf
    /// scans this equals `rows_out`.
    pub calls: u64,
    /// Wall time spent in this operator *including* its children, µs.
    pub elapsed_us: u64,
    /// Column batches this operator processed (0 for an operator that
    /// works on rows or whole inputs, such as `Sort`, `Limit`, `Union`,
    /// `Distinct` and DML apply).
    pub batches: u64,
    /// A scan's or join's columns with lanes, of its relation's.
    pub cols: Option<(usize, usize)>,
    /// Input operators, outermost-input first.
    pub children: Vec<OpNode>,
}

impl OpNode {
    /// Renders this subtree as indented `EXPLAIN ANALYZE` lines. Operators
    /// that counted batches append their batch actuals (`batches=…
    /// rows/batch=…`), scans and joins the columns they carry (`cols=5/9`);
    /// the others keep the plain format.
    pub fn render(&self, depth: usize, out: &mut Vec<String>) {
        let mut line = format!(
            "{}{} (actual rows={} calls={} time_us={}",
            "  ".repeat(depth),
            self.label,
            self.rows_out,
            self.calls,
            self.elapsed_us,
        );
        if self.batches > 0 {
            line.push_str(&format!(
                " batches={} rows/batch={}",
                self.batches,
                self.calls / self.batches
            ));
        }
        if let Some((carried, of)) = self.cols {
            line.push_str(&format!(" cols={carried}/{of}"));
        }
        line.push(')');
        out.push(line);
        for c in &self.children {
            c.render(depth + 1, out);
        }
    }

    /// Flattens the subtree, pre-order.
    pub fn flatten<'a>(&'a self, out: &mut Vec<&'a OpNode>) {
        out.push(self);
        for c in &self.children {
            c.flatten(out);
        }
    }
}

/// Collects [`OpNode`]s during one statement's execution.
///
/// Interior-mutable so the `Copy` executor can record through a shared
/// reference; single-statement scope, never shared across threads.
#[derive(Debug, Default)]
pub struct OpProfiler {
    stack: RefCell<Vec<OpNode>>,
}

impl OpProfiler {
    /// Creates an empty profiler.
    pub fn new() -> OpProfiler {
        OpProfiler::default()
    }

    /// Pushes a producer node with no inputs (scans, Values, Result).
    pub fn leaf(&self, label: String, rows_out: u64, elapsed_us: u64) {
        self.stack.borrow_mut().push(OpNode {
            label,
            rows_out,
            calls: rows_out,
            elapsed_us,
            batches: 0,
            cols: None,
            children: Vec::new(),
        });
    }

    /// [`Self::leaf`] for a vectorized producer, recording how many column
    /// batches it emitted.
    pub fn leaf_batched(&self, label: String, rows_out: u64, elapsed_us: u64, batches: u64) {
        self.stack.borrow_mut().push(OpNode {
            label,
            rows_out,
            calls: rows_out,
            elapsed_us,
            batches,
            cols: None,
            children: Vec::new(),
        });
    }

    /// Pops the last `n` pushed nodes as children of a new node. Clamped
    /// to what is available, so a mismatched site degrades the tree shape
    /// instead of panicking mid-statement.
    pub fn wrap(&self, n: usize, label: String, rows_out: u64, calls: u64, elapsed_us: u64) {
        self.wrap_batched(n, label, rows_out, calls, elapsed_us, 0);
    }

    /// [`Self::wrap`] for a vectorized consumer, recording how many column
    /// batches it pulled from its inputs.
    pub fn wrap_batched(
        &self,
        n: usize,
        label: String,
        rows_out: u64,
        calls: u64,
        elapsed_us: u64,
        batches: u64,
    ) {
        let mut stack = self.stack.borrow_mut();
        let n = n.min(stack.len());
        let at = stack.len() - n;
        let children: Vec<OpNode> = stack.split_off(at);
        stack.push(OpNode {
            label,
            rows_out,
            calls,
            elapsed_us,
            batches,
            cols: None,
            children,
        });
    }

    /// Records that the node pushed last carries `carried` of `of` columns.
    pub fn note_cols(&self, carried: usize, of: usize) {
        if let Some(node) = self.stack.borrow_mut().last_mut() {
            node.cols = Some((carried, of));
        }
    }

    /// Number of nodes currently at the top level.
    pub fn depth(&self) -> usize {
        self.stack.borrow().len()
    }

    /// Takes the collected roots (normally exactly one per statement).
    pub fn take(&self) -> Vec<OpNode> {
        std::mem::take(&mut *self.stack.borrow_mut())
    }
}

/// Micros elapsed since `start`, saturating into `u64`.
pub(crate) fn us_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_machine_builds_a_tree() {
        let p = OpProfiler::new();
        p.leaf("SeqScan a".into(), 10, 5);
        p.leaf("SeqScan b".into(), 20, 7);
        p.wrap(2, "HashJoin".into(), 15, 30, 40);
        p.wrap(1, "Filter".into(), 3, 15, 50);
        let roots = p.take();
        assert_eq!(roots.len(), 1);
        let filter = &roots[0];
        assert_eq!(filter.label, "Filter");
        assert_eq!(filter.rows_out, 3);
        assert_eq!(filter.calls, 15);
        let join = &filter.children[0];
        assert_eq!(join.label, "HashJoin");
        assert_eq!(join.children.len(), 2);
        assert_eq!(join.children[0].label, "SeqScan a");
        assert_eq!(join.children[1].label, "SeqScan b");
    }

    #[test]
    fn wrap_clamps_to_available_nodes() {
        let p = OpProfiler::new();
        p.leaf("SeqScan t".into(), 1, 1);
        p.wrap(5, "Sort (1 keys)".into(), 1, 1, 2);
        let roots = p.take();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
        // empty stack: wrap produces a childless node, no panic
        p.wrap(2, "Limit 1".into(), 0, 0, 0);
        assert_eq!(p.take()[0].children.len(), 0);
    }

    #[test]
    fn render_matches_explain_indentation() {
        let p = OpProfiler::new();
        p.leaf("SeqScan t".into(), 4, 9);
        p.wrap(1, "Filter".into(), 2, 4, 12);
        let mut lines = Vec::new();
        p.take()[0].render(0, &mut lines);
        assert_eq!(
            lines,
            vec![
                "Filter (actual rows=2 calls=4 time_us=12)",
                "  SeqScan t (actual rows=4 calls=4 time_us=9)",
            ]
        );
    }

    #[test]
    fn batched_nodes_render_batch_actuals() {
        let p = OpProfiler::new();
        p.leaf_batched("SeqScan t".into(), 10, 9, 3);
        p.wrap_batched(1, "Filter".into(), 4, 10, 12, 3);
        let mut lines = Vec::new();
        p.take()[0].render(0, &mut lines);
        assert_eq!(
            lines,
            vec![
                "Filter (actual rows=4 calls=10 time_us=12 batches=3 rows/batch=3)",
                "  SeqScan t (actual rows=10 calls=10 time_us=9 batches=3 rows/batch=3)",
            ]
        );
    }
}
