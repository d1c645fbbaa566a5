//! Typed column vectors: the storage behind [`crate::Table`].
//!
//! A table keeps one [`ColumnVec`] per schema column — a plain vector of
//! `bool`, `i64` or `f64`, or of `u32` dictionary codes for text — plus one
//! NULL bit per row. Nothing here allocates per row: a text cell costs four
//! bytes and a string is stored once per *distinct* value, in the column's
//! [`Dictionary`].

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::schema::ColumnType;
use crate::value::Value;

/// The distinct strings of one text column, numbered in first-seen order.
///
/// `strings[code]` is the string — stored once, moved in from the first
/// cell that held it. `index` finds a string's code from its keyed
/// (`RandomState`) hash, so probing and growing it never touch the strings:
/// a key maps to the one code that owns it, and a string whose hash is
/// taken by another string owns the next free key after it (nothing is ever
/// removed, so lookups retrace the same steps). The map is only ever probed
/// by key, never iterated, so its hash order cannot reach a result.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dictionary {
    strings: Vec<Box<str>>,
    index: HashMap<u64, u32, BuildHasherDefault<KeyIsHash>>,
    hasher: RandomState,
}

/// Hashes a dictionary key to itself: the keys are keyed hashes already
/// (consecutive ones, after a collision, included — they differ in their
/// low bits, which pick the bucket).
#[derive(Debug, Clone, Copy, Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    /// Not how a `u64` key arrives; folds the bytes in all the same.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

impl Dictionary {
    /// The code of `s` if it is known, else the free key it would own.
    /// `key` is where the search starts: the hash of `s`.
    fn find(&self, mut key: u64, s: &str) -> Result<u32, u64> {
        loop {
            match self.index.get(&key) {
                None => return Err(key),
                Some(&code) if &*self.strings[code as usize] == s => return Ok(code),
                Some(_) => key = key.wrapping_add(1),
            }
        }
    }

    /// The code of `s`, adding it when new; the search starts at `key`.
    fn intern_at(&mut self, key: u64, s: String) -> u32 {
        self.find(key, &s).unwrap_or_else(|free| {
            // A table holds at most 2^32 rows (`Table::insert_all` refuses
            // more) and every distinct string sits in at least one of them,
            // so the count of strings before this one fits.
            let code = self.strings.len() as u32;
            self.strings.push(s.into_boxed_str());
            self.index.insert(free, code);
            code
        })
    }

    fn intern(&mut self, s: String) -> u32 {
        self.intern_at(self.hasher.hash_one(s.as_str()), s)
    }

    /// The code of `s`, if any row ever held it.
    pub(crate) fn code_of(&self, s: &str) -> Option<u32> {
        self.find(self.hasher.hash_one(s), s).ok()
    }

    /// The string behind `code` (empty for a code this dictionary never
    /// handed out).
    pub(crate) fn get(&self, code: u32) -> &str {
        self.strings.get(code as usize).map_or("", |s| s)
    }

    fn approx_bytes(&self) -> usize {
        let text: usize = self.strings.iter().map(|s| s.len()).sum();
        // A string handle and an index entry (key, code) beside the bytes.
        text + self.strings.len() * (std::mem::size_of::<Box<str>>() + 12)
    }
}

/// The values of one column, by declared type. NULL rows hold a placeholder
/// (`false`, `0`, `0.0`, code `0`) that is never read as a value.
#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text { codes: Vec<u32>, dict: Dictionary },
}

/// One column of a table: typed values plus a NULL bitmap.
#[derive(Debug, Clone)]
pub(crate) struct ColumnVec {
    data: ColumnData,
    /// Bit `i % 64` of word `i / 64` is set when row `i` is NULL.
    nulls: Vec<u64>,
    null_count: usize,
    len: usize,
}

impl ColumnVec {
    pub(crate) fn new(ty: ColumnType) -> Self {
        ColumnVec {
            data: match ty {
                ColumnType::Bool => ColumnData::Bool(Vec::new()),
                ColumnType::Int => ColumnData::Int(Vec::new()),
                ColumnType::Float => ColumnData::Float(Vec::new()),
                ColumnType::Text => ColumnData::Text {
                    codes: Vec::new(),
                    dict: Dictionary::default(),
                },
            },
            nulls: Vec::new(),
            null_count: 0,
            len: 0,
        }
    }

    pub(crate) fn data(&self) -> &ColumnData {
        &self.data
    }

    /// True when no row of the column is NULL — kernels skip the bitmap.
    pub(crate) fn has_no_nulls(&self) -> bool {
        self.null_count == 0
    }

    #[inline]
    pub(crate) fn is_null(&self, row: usize) -> bool {
        (self.nulls[row / 64] >> (row % 64)) & 1 == 1
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Bool(v) => v.reserve(additional),
            ColumnData::Int(v) => v.reserve(additional),
            ColumnData::Float(v) => v.reserve(additional),
            ColumnData::Text { codes, .. } => codes.reserve(additional),
        }
    }

    /// Appends one cell. The caller has checked [`ColumnType::admits`]; an
    /// `Int` offered to a `Float` column is stored as its `f64`.
    pub(crate) fn push(&mut self, value: Value) {
        if self.len.is_multiple_of(64) {
            self.nulls.push(0);
        }
        if value.is_null() {
            self.nulls[self.len / 64] |= 1 << (self.len % 64);
            self.null_count += 1;
        }
        match (&mut self.data, value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(b),
            (ColumnData::Bool(v), Value::Null) => v.push(false),
            (ColumnData::Int(v), Value::Int(i)) => v.push(i),
            (ColumnData::Int(v), Value::Null) => v.push(0),
            (ColumnData::Float(v), Value::Float(f)) => v.push(f),
            (ColumnData::Float(v), Value::Int(i)) => v.push(i as f64),
            (ColumnData::Float(v), Value::Null) => v.push(0.0),
            (ColumnData::Text { codes, dict }, Value::Text(s)) => codes.push(dict.intern(s)),
            (ColumnData::Text { codes, .. }, Value::Null) => codes.push(0),
            (_, other) => {
                // pb-lint: allow(no-panic-in-solver-paths) — invariant:
                // `Table` validates every tuple of a batch against
                // `ColumnType::admits` before it pushes the first cell.
                unreachable!("inadmissible value {other} reached column storage")
            }
        }
        self.len += 1;
    }

    /// The cell at `row` as an owned [`Value`] (text is copied out of the
    /// dictionary).
    pub(crate) fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Text { codes, dict } => Value::Text(dict.get(codes[row]).to_string()),
        }
    }

    /// [`Value::as_f64`] of the cell at `row`, read straight from the typed
    /// vector: `None` for NULL and for text.
    #[inline]
    pub(crate) fn f64_at(&self, row: usize) -> Option<f64> {
        if self.is_null(row) {
            return None;
        }
        match &self.data {
            ColumnData::Bool(v) => Some(if v[row] { 1.0 } else { 0.0 }),
            ColumnData::Int(v) => Some(v[row] as f64),
            ColumnData::Float(v) => Some(v[row]),
            ColumnData::Text { .. } => None,
        }
    }

    /// Bytes of the value vector, the bitmap and (for text) the dictionary.
    pub(crate) fn approx_bytes(&self) -> usize {
        let values = match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Text { codes, dict } => codes.len() * 4 + dict.approx_bytes(),
        };
        values + self.nulls.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_round_trip_with_nulls_and_widening() {
        let mut c = ColumnVec::new(ColumnType::Float);
        for v in [Value::Float(-0.0), Value::Null, Value::Int(7)] {
            c.push(v);
        }
        assert!(matches!(c.value(0), Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
        assert!(c.value(1).is_null());
        // The documented widening: an Int stored in a Float column reads
        // back as the Float of the same number.
        assert!(matches!(c.value(2), Value::Float(x) if x == 7.0));
        assert_eq!(c.f64_at(1), None);
        assert_eq!(c.f64_at(2), Some(7.0));
        assert!(!c.has_no_nulls());
    }

    #[test]
    fn dictionary_codes_are_first_seen_order_and_shared() {
        let mut c = ColumnVec::new(ColumnType::Text);
        for s in ["b", "a", "b", "", "a"] {
            c.push(Value::Text(s.into()));
        }
        c.push(Value::Null);
        let ColumnData::Text { codes, dict } = c.data() else {
            panic!("text column");
        };
        assert_eq!(codes, &[0, 1, 0, 2, 1, 0]);
        assert_eq!(dict.strings.len(), 3);
        assert_eq!(dict.code_of("a"), Some(1));
        assert_eq!(dict.code_of(""), Some(2));
        assert_eq!(dict.code_of("zzz"), None);
        assert_eq!(dict.get(0), "b");
        assert_eq!(dict.get(9), "");
        assert!(c.value(5).is_null());
        assert_eq!(c.value(3), Value::Text(String::new()));
    }

    #[test]
    fn strings_whose_hashes_collide_keep_their_own_codes() {
        // No test can make `RandomState` collide; start every search from
        // one key instead, as three colliding hashes would.
        let mut dict = Dictionary::default();
        let key = u64::MAX;
        for (code, s) in ["a", "b", "c", "b", "a"].into_iter().enumerate() {
            assert_eq!(
                dict.intern_at(key, s.to_string()),
                code.min(4 - code) as u32
            );
        }
        assert_eq!(dict.strings.len(), 3);
        // Each took the next free key (wrapping), and is found again there.
        for (code, s) in ["a", "b", "c"].into_iter().enumerate() {
            assert_eq!(dict.find(key, s), Ok(code as u32));
            assert_eq!(dict.index[&key.wrapping_add(code as u64)], code as u32);
        }
        assert_eq!(dict.find(key, "d"), Err(2));
    }

    #[test]
    fn bitmap_grows_a_word_every_64_rows() {
        let mut c = ColumnVec::new(ColumnType::Int);
        for i in 0..130 {
            c.push(if i % 65 == 64 {
                Value::Null
            } else {
                Value::Int(i)
            });
        }
        assert_eq!(c.nulls.len(), 3);
        assert!(c.is_null(64) && c.is_null(129));
        assert!(!c.is_null(63) && !c.is_null(65));
        assert_eq!(c.approx_bytes(), 130 * 8 + 3 * 8);
    }
}
