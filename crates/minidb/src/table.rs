//! Tables: a schema plus one typed vector per column.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::column::ColumnVec;
use crate::error::DbError;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use crate::DbResult;

/// Source of content fingerprints: a process-wide counter, so no two
/// distinct table states can ever share a stamp (see [`Table::fingerprint`]).
static NEXT_FINGERPRINT: AtomicU64 = AtomicU64::new(1);

fn fresh_fingerprint() -> u64 {
    NEXT_FINGERPRINT.fetch_add(1, Ordering::Relaxed)
}

/// Rows a table can hold: every row needs a [`TupleId`], which is 32 bits.
const MAX_ROWS: usize = u32::MAX as usize + 1;

/// An in-memory, append-only table.
///
/// Tuples are identified by their insertion index ([`TupleId`]), which the
/// package engine uses as the decision-variable index in ILP translation and
/// as the element identity in packages.
///
/// # Storage
///
/// The table is **columnar**: one typed vector per schema column — `bool`,
/// `i64` or `f64` values, `u32` dictionary codes for text (each distinct
/// string stored once per column) — and one NULL bit per cell. No row is
/// stored as a row. A [`Tuple`] is what [`Table::insert`] takes in; reading
/// goes through [`RowView`] (a row position that fetches cells on demand),
/// [`Table::value_f64`] (one typed read), or — for whole-column work —
/// [`crate::eval::BoundExpr`]'s chunk form and
/// [`crate::stats::TableStats`], which run over the vectors directly.
///
/// **Widening.** A `Float` column admits `Int` values and stores them as the
/// `f64` of the same number, so `Value::Int(7)` inserted there reads back as
/// `Value::Float(7.0)`. Every numeric operator already worked on that `f64`,
/// so no expression result changes; only the display of such a cell does.
/// Every other cell reads back exactly as inserted (floats bit for bit,
/// `-0.0` and NaN included).
///
/// [`Table::fingerprint`] means what it always did: it changes on every
/// successful mutation and never otherwise.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnVec>,
    len: usize,
    fingerprint: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnVec::new(c.ty))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            len: 0,
            fingerprint: fresh_fingerprint(),
        }
    }

    /// A stamp identifying this table's current contents, for cache keying.
    ///
    /// Every mutation ([`Table::insert`] and friends) replaces the stamp with
    /// a fresh process-wide unique value, so two `Table` values carry the
    /// same fingerprint only when one is an (unmutated) clone of the other —
    /// i.e. their rows are guaranteed identical. Derived data keyed by
    /// fingerprint (the engine's view cache) therefore can never be served
    /// stale: mutating a relation silently invalidates every cached entry
    /// for it. The stamp is *not* content-addressed — reloading identical
    /// rows into a new table yields a different fingerprint, which costs a
    /// cache rebuild but never correctness.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the rows occupy: every column's value vector and NULL bitmap,
    /// plus the text dictionaries. Counted from lengths, so the same rows
    /// always report the same size.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(ColumnVec::approx_bytes).sum()
    }

    /// Validates and appends a tuple, returning its id.
    pub fn insert(&mut self, tuple: Tuple) -> DbResult<TupleId> {
        self.check(&tuple)?;
        let id = self.next_ids(1)?.start;
        self.append(tuple);
        self.fingerprint = fresh_fingerprint();
        Ok(TupleId(id as u32))
    }

    /// Appends many tuples, all or none: arity and types of the whole batch
    /// are checked before the first cell is stored, so a batch with a bad
    /// row leaves the table — length and [`Table::fingerprint`] — untouched.
    /// A batch that succeeds is one mutation: one new fingerprint.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(
        &mut self,
        tuples: I,
    ) -> DbResult<Vec<TupleId>> {
        let batch: Vec<Tuple> = tuples.into_iter().collect();
        for tuple in &batch {
            self.check(tuple)?;
        }
        let ids = self.next_ids(batch.len())?;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        for column in &mut self.columns {
            column.reserve(batch.len());
        }
        for tuple in batch {
            self.append(tuple);
        }
        self.fingerprint = fresh_fingerprint();
        Ok(ids.map(|i| TupleId(i as u32)).collect())
    }

    /// Stores a tuple that [`Table::check`] accepted and that has an id.
    fn append(&mut self, tuple: Tuple) {
        for (column, value) in self.columns.iter_mut().zip(tuple.into_values()) {
            column.push(value);
        }
        self.len += 1;
    }

    fn check(&self, tuple: &Tuple) -> DbResult<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(DbError::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.arity(),
            });
        }
        for (col, v) in self.schema.columns().iter().zip(tuple.values()) {
            if !col.ty.admits(v) {
                return Err(DbError::TypeError(format!(
                    "value {v} is not admissible in column '{}' of type {}",
                    col.name, col.ty
                )));
            }
        }
        Ok(())
    }

    /// The row positions `additional` more rows would take — an error, not a
    /// wrapped [`TupleId`], when they would not all fit in 32 bits.
    fn next_ids(&self, additional: usize) -> DbResult<Range<usize>> {
        match self.len.checked_add(additional) {
            Some(end) if end <= MAX_ROWS => Ok(self.len..end),
            _ => Err(DbError::EvalError(format!(
                "table '{}' cannot hold {} more rows: tuple ids are 32-bit",
                self.name, additional
            ))),
        }
    }

    /// The row with this id.
    pub fn get(&self, id: TupleId) -> Option<RowView<'_>> {
        (id.index() < self.len).then_some(RowView {
            table: self,
            row: id.index(),
        })
    }

    /// The row with this id, erroring when absent.
    pub fn require(&self, id: TupleId) -> DbResult<RowView<'_>> {
        self.get(id).ok_or_else(|| self.no_such_tuple(id))
    }

    fn no_such_tuple(&self, id: TupleId) -> DbError {
        DbError::EvalError(format!(
            "tuple {id} does not exist in table '{}'",
            self.name
        ))
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowView<'_>> + DoubleEndedIterator {
        (0..self.len).map(move |row| RowView { table: self, row })
    }

    /// Iterator over `(TupleId, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, RowView<'_>)> {
        self.rows().map(|row| (row.id(), row))
    }

    /// The value in `column` for tuple `id`, as f64 — one read of the typed
    /// column vector, no row in between.
    pub fn value_f64(&self, id: TupleId, column: &str) -> DbResult<f64> {
        let idx = self.schema.require(column)?;
        let row = self.require(id)?.row;
        match self.columns[idx].f64_at(row) {
            Some(x) => Ok(x),
            None => self.columns[idx]
                .value(row)
                .expect_f64(format_args!("column '{column}'")),
        }
    }

    /// Every row of this table as a [`Selection`].
    pub fn select_all(&self) -> Selection<'_> {
        Selection {
            table: self,
            rows: Rows::Run(0..self.len),
        }
    }

    /// The rows `range` of this table as a [`Selection`].
    pub fn select_run(&self, range: Range<usize>) -> DbResult<Selection<'_>> {
        if range.start > range.end || range.end > self.len {
            return Err(self.no_such_tuple(TupleId(range.end.saturating_sub(1) as u32)));
        }
        Ok(Selection {
            table: self,
            rows: Rows::Run(range),
        })
    }

    /// The listed rows of this table, in list order, as a [`Selection`].
    /// Errors on the first id the table does not have. Consecutive ids are
    /// recognized as a run, which column reads serve by slice copy.
    pub fn select<'t>(&'t self, ids: &'t [TupleId]) -> DbResult<Selection<'t>> {
        if let Some(id) = ids.iter().find(|id| id.index() >= self.len) {
            return Err(self.no_such_tuple(*id));
        }
        let run = ids.windows(2).all(|w| w[1].index() == w[0].index() + 1);
        let rows = match ids.first() {
            Some(first) if run => Rows::Run(first.index()..first.index() + ids.len()),
            _ => Rows::Ids(ids),
        };
        Ok(Selection { table: self, rows })
    }

    pub(crate) fn column(&self, idx: usize) -> Option<&ColumnVec> {
        self.columns.get(idx)
    }

    /// Renders the table (or its first `limit` rows) as an aligned text grid.
    /// Used by the examples and the REPL.
    pub fn render(&self, limit: usize) -> String {
        let mut header: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        header.insert(0, "#".to_string());
        let mut grid: Vec<Vec<String>> = vec![header];
        for (id, row) in self.iter().take(limit) {
            let mut line: Vec<String> = vec![id.to_string()];
            line.extend(row.values().iter().map(|v| v.to_string()));
            grid.push(line);
        }
        let widths: Vec<usize> = (0..grid[0].len())
            .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if i == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
        }
        if self.len() > limit {
            out.push_str(&format!("... ({} more rows)\n", self.len() - limit));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{} rows]", self.name, self.schema, self.len())
    }
}

/// One row of a [`Table`], read lazily: the view is a table reference and a
/// row position, and each accessor fetches just the cells it is asked for
/// from the column vectors (text is copied out of its dictionary). This is
/// how row-at-a-time code — rendering, CSV export, the interpreted package
/// oracle, [`crate::eval::BoundExpr::eval`] — reads a
/// table that stores no rows.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'t> {
    table: &'t Table,
    row: usize,
}

impl RowView<'_> {
    /// The row's tuple id.
    pub fn id(&self) -> TupleId {
        TupleId(self.row as u32)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.table.columns.len()
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> Option<Value> {
        self.table.columns.get(idx).map(|c| c.value(self.row))
    }

    /// Value by column name.
    pub fn get_named(&self, name: &str) -> DbResult<Value> {
        let idx = self.table.schema.require(name)?;
        Ok(self.table.columns[idx].value(self.row))
    }

    /// Numeric value by column name (errors on non-numeric columns).
    pub fn get_f64(&self, name: &str) -> DbResult<f64> {
        self.table.value_f64(self.id(), name)
    }

    /// All values, in column order.
    pub fn values(&self) -> Vec<Value> {
        self.table
            .columns
            .iter()
            .map(|c| c.value(self.row))
            .collect()
    }

    /// The row as an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.values())
    }
}

impl fmt::Display for RowView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_tuple().fmt(f)
    }
}

/// Rows of one table, checked to exist, in the order a chunk kernel should
/// produce their results: what [`crate::eval::BoundExpr`]'s chunk form
/// evaluates over. Built by [`Table::select`] / [`Table::select_run`].
#[derive(Debug, Clone)]
pub struct Selection<'t> {
    table: &'t Table,
    rows: Rows<'t>,
}

#[derive(Debug, Clone)]
enum Rows<'t> {
    /// Consecutive rows: column reads are slice copies.
    Run(Range<usize>),
    /// Any other list: column reads gather.
    Ids(&'t [TupleId]),
}

impl<'t> Selection<'t> {
    /// Number of selected rows (lanes).
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Run(r) => r.len(),
            Rows::Ids(ids) => ids.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table the rows belong to.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// The row behind lane `lane`.
    pub fn row(&self, lane: usize) -> RowView<'t> {
        RowView {
            table: self.table,
            row: match &self.rows {
                Rows::Run(r) => r.start + lane,
                Rows::Ids(ids) => ids[lane].index(),
            },
        }
    }

    /// Calls `f(row, src[row])` for every selected row, in lane order.
    pub(crate) fn for_each<T: Copy>(&self, src: &[T], mut f: impl FnMut(usize, T)) {
        match &self.rows {
            Rows::Run(r) => {
                for (&x, row) in src[r.clone()].iter().zip(r.clone()) {
                    f(row, x);
                }
            }
            Rows::Ids(ids) => {
                for id in ids.iter() {
                    f(id.index(), src[id.index()]);
                }
            }
        }
    }

    /// Writes `f(src[row])` for every selected row into `out`, lane by lane.
    pub(crate) fn read<T: Copy, U>(&self, src: &[T], out: &mut [U], f: impl Fn(T) -> U) {
        match &self.rows {
            Rows::Run(r) => {
                for (o, &x) in out.iter_mut().zip(&src[r.clone()]) {
                    *o = f(x);
                }
            }
            Rows::Ids(ids) => {
                for (o, id) in out.iter_mut().zip(ids.iter()) {
                    *o = f(src[id.index()]);
                }
            }
        }
    }

    /// The NULL flag of every selected row of `column`; `None` when the
    /// column has no NULL at all.
    pub(crate) fn nulls(&self, column: &ColumnVec) -> Option<Vec<bool>> {
        if column.has_no_nulls() {
            return None;
        }
        Some(match &self.rows {
            Rows::Run(r) => r.clone().map(|row| column.is_null(row)).collect(),
            Rows::Ids(ids) => ids.iter().map(|id| column.is_null(id.index())).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::tuple;

    fn recipes() -> Table {
        let schema = Schema::build(&[
            ("name", ColumnType::Text),
            ("calories", ColumnType::Float),
            ("gluten", ColumnType::Text),
        ]);
        let mut t = Table::new("recipes", schema);
        t.insert(tuple!("oatmeal", 320.0, "free")).unwrap();
        t.insert(tuple!("pasta", 640.0, "full")).unwrap();
        t.insert(tuple!("salad", 210.0, "free")).unwrap();
        t
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let t = recipes();
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.get(TupleId(1)).unwrap().get(0),
            Some(Value::Text("pasta".into()))
        );
        assert!(t.get(TupleId(9)).is_none());
        assert!(t.require(TupleId(3)).is_err());
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = recipes();
        assert!(matches!(
            t.insert(tuple!("only-one")),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(tuple!(12, 320.0, "free")),
            Err(DbError::TypeError(_))
        ));
    }

    #[test]
    fn a_failing_batch_inserts_nothing_and_a_good_one_is_one_mutation() {
        let mut t = recipes();
        let (len, stamp) = (t.len(), t.fingerprint());
        // The bad row is last: its two good predecessors must not land.
        for bad in [tuple!("short"), tuple!("typed", "wrong", "free")] {
            let batch = vec![
                tuple!("soup", 150.0, "free"),
                tuple!("rice", 200.0, "free"),
                bad,
            ];
            assert!(t.insert_all(batch).is_err());
            assert_eq!((t.len(), t.fingerprint()), (len, stamp));
        }
        assert_eq!(t.insert_all(Vec::new()).unwrap(), Vec::new());
        assert_eq!(t.fingerprint(), stamp, "an empty batch mutates nothing");
        let ids = t
            .insert_all(vec![
                tuple!("soup", 150.0, "free"),
                tuple!("rice", 200.0, "free"),
            ])
            .unwrap();
        assert_eq!(ids, vec![TupleId(3), TupleId(4)]);
        assert_eq!(t.len(), 5);
        let after = t.fingerprint();
        assert_ne!(after, stamp);
        // One batch, one stamp: a single further insert takes the next one
        // this table draws, and a clone taken now still matches.
        assert_eq!(t.clone().fingerprint(), after);
    }

    #[test]
    fn tuple_ids_do_not_wrap_past_32_bits() {
        let mut t = recipes();
        // No test can insert 2^32 rows; the bound is checked where the ids
        // are handed out, so pretend the table is nearly full.
        t.len = MAX_ROWS - 1;
        assert_eq!(t.next_ids(1).unwrap(), MAX_ROWS - 1..MAX_ROWS);
        assert!(matches!(t.next_ids(2), Err(DbError::EvalError(_))));
        t.len = MAX_ROWS;
        assert!(t.next_ids(0).is_ok());
        assert!(matches!(t.next_ids(1), Err(DbError::EvalError(_))));
        assert!(t.next_ids(usize::MAX).is_err());
        let stamp = t.fingerprint();
        assert!(t.insert(tuple!("late", 1.0, "free")).is_err());
        assert!(t.insert_all(vec![tuple!("late", 1.0, "free")]).is_err());
        assert_eq!((t.len, t.fingerprint()), (MAX_ROWS, stamp));
    }

    #[test]
    fn value_f64_reads_numeric_columns() {
        let t = recipes();
        assert_eq!(t.value_f64(TupleId(0), "calories").unwrap(), 320.0);
        assert!(t.value_f64(TupleId(0), "name").is_err());
        assert!(t.value_f64(TupleId(7), "calories").is_err());
        assert!(t.value_f64(TupleId(0), "nope").is_err());
    }

    #[test]
    fn fingerprints_change_on_mutation_and_survive_clones() {
        let mut t = recipes();
        let before = t.fingerprint();
        let clone = t.clone();
        // An unmutated clone has identical contents, so it shares the stamp.
        assert_eq!(clone.fingerprint(), before);
        t.insert(tuple!("soup", 150.0, "free")).unwrap();
        assert_ne!(t.fingerprint(), before, "mutation must refresh the stamp");
        // Divergent mutations of clones never collide.
        let mut a = t.clone();
        let mut b = t.clone();
        a.insert(tuple!("rice", 200.0, "free")).unwrap();
        b.insert(tuple!("rice", 200.0, "free")).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Distinct tables are always distinct, even with identical rows.
        assert_ne!(recipes().fingerprint(), recipes().fingerprint());
    }

    #[test]
    fn row_views_read_back_what_was_inserted() {
        let schema = Schema::build(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Text),
            ("b", ColumnType::Bool),
        ]);
        let mut t = Table::new("t", schema);
        let rows = vec![
            tuple!(1, 2.5, "x", true),
            Tuple::new(vec![Value::Null; 4]),
            tuple!(-3, -0.0, "", false),
        ];
        t.insert_all(rows.clone()).unwrap();
        for (row, want) in t.rows().zip(&rows) {
            assert_eq!(&row.to_tuple(), want);
            assert_eq!(row.to_string(), want.to_string());
            assert_eq!(row.arity(), 4);
        }
        let last = t.rows().next_back().unwrap();
        assert_eq!(last.id(), TupleId(2));
        assert_eq!(last.get_named("T").unwrap(), Value::Text(String::new()));
        assert_eq!(last.get_f64("f").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(last.get(4).is_none());
        assert!(last.get_named("nope").is_err());
    }

    #[test]
    fn selections_check_ids_and_recognize_runs() {
        let t = recipes();
        let run = [TupleId(1), TupleId(2)];
        let scattered = [TupleId(2), TupleId(0), TupleId(2)];
        for (ids, is_run) in [(&run[..], true), (&scattered[..], false), (&[][..], false)] {
            let sel = t.select(ids).unwrap();
            assert_eq!(sel.len(), ids.len());
            assert_eq!(matches!(sel.rows, Rows::Run(_)), is_run);
            for (lane, id) in ids.iter().enumerate() {
                assert_eq!(sel.row(lane).id(), *id);
            }
        }
        assert!(t.select(&[TupleId(0), TupleId(3)]).is_err());
        assert_eq!(t.select_run(1..3).unwrap().row(1).id(), TupleId(2));
        assert!(t.select_run(2..4).is_err());
    }

    #[test]
    fn approx_bytes_counts_vectors_bitmaps_and_dictionaries() {
        let t = recipes();
        // Two text columns of 4-byte codes, one f64 column, one bitmap word
        // each; dictionaries hold 3 and 2 distinct strings.
        // each costing its bytes, a 16-byte handle and a 12-byte index entry.
        let names = "oatmeal".len() + "pasta".len() + "salad".len() + 3 * 28;
        let gluten = 2 * "free".len() + 2 * 28;
        assert_eq!(t.approx_bytes(), 3 * (4 + 8 + 4) + 3 * 8 + names + gluten);
    }

    #[test]
    fn render_includes_header_and_truncation_note() {
        let t = recipes();
        let r = t.render(2);
        assert!(r.contains("calories"));
        assert!(r.contains("1 more rows"));
    }
}
