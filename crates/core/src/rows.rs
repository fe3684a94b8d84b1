//! Copy-on-write row storage shared between successive reports.
//!
//! A streaming engine hands out a report per publish, and each report
//! lists every kept user's profile and placement in user-id order. Most
//! of those rows do not change between two publishes, so [`Rows`] keeps
//! them in `Arc`-shared chunks of at most [`CHUNK`] rows: cloning a
//! `Rows` copies only the chunk pointers, and a write copies the one
//! chunk it touches only when another clone still shares it. A publish
//! that re-places `d` users of an `n`-user crowd therefore copies at most
//! `d` chunks instead of all `n` rows, and dropping the report it
//! superseded frees only the chunks that report did not share.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use serde::{DeError, Deserialize, JsonWriter, Serialize, Value};

/// Most rows a chunk holds. A snapshot taken while older reports are
/// alive copies one chunk per dirty user, and every clone and drop of a
/// report touches one pointer per chunk; a report encode walks the
/// chunks in order. Measured on a 20,000-user crowd (40 posts per user,
/// 60 dirty users per snapshot, the two previous reports held, 2-CPU
/// host), p50 over 300 snapshots, three runs each:
///
/// | rows per chunk | snapshot + drop of the superseded report | encode after the 300 |
/// |---|---|---|
/// | 16 | 2.2–2.5 ms | 18.2–19.7 ms |
/// | 32 | 2.2–2.4 ms | 16.9–17.1 ms |
/// | 64 | 1.8–2.4 ms | 16.3–16.9 ms |
/// | 128 | 2.8–3.1 ms | 13.8–16.3 ms |
/// | 256 | 3.5–3.6 ms | 14.4–16.2 ms |
/// | one `Vec` (whole copy) | 10.4–12.0 ms | 16.5–18.1 ms |
pub(crate) const CHUNK: usize = 64;

/// An ordered list of rows stored in copy-on-write chunks.
///
/// Reads like a slice (`len`, `iter`, indexing, `binary_search_by`) and
/// serializes as a plain JSON array, so a report holding `Rows` encodes
/// to the same bytes as one holding a `Vec`. Chunks are never empty and
/// never hold more than [`CHUNK`] rows.
pub struct Rows<T> {
    chunks: Vec<Arc<Vec<T>>>,
    /// `ends[c]` is the number of rows in chunks `0..=c`.
    ends: Vec<usize>,
}

impl<T> Rows<T> {
    /// An empty list.
    pub fn new() -> Rows<T> {
        Rows {
            chunks: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The rows in order.
    pub fn iter(&self) -> RowsIter<'_, T> {
        RowsIter {
            chunks: self.chunks.iter(),
            rows: [].iter(),
            remaining: self.len(),
        }
    }

    /// Binary search with the contract of [`slice::binary_search_by`]:
    /// `f` must order the rows, and the result is the matching index or
    /// the index where a matching row would be inserted.
    ///
    /// # Errors
    ///
    /// `Err(i)` when no row matches; `i` keeps the order if a row is
    /// inserted there.
    pub fn binary_search_by<F>(&self, mut f: F) -> Result<usize, usize>
    where
        F: FnMut(&T) -> Ordering,
    {
        // The first chunk whose last row is not below the target holds
        // the target, or the place it would go.
        let c = self
            .chunks
            .partition_point(|chunk| f(chunk.last().expect("chunks are never empty")).is_lt());
        let Some(chunk) = self.chunks.get(c) else {
            return Err(self.len());
        };
        let start = self.start(c);
        chunk
            .binary_search_by(f)
            .map(|j| start + j)
            .map_err(|j| start + j)
    }

    /// The first row index of chunk `c`.
    fn start(&self, c: usize) -> usize {
        if c == 0 {
            0
        } else {
            self.ends[c - 1]
        }
    }

    /// `(chunk, offset)` of row `i`.
    ///
    /// # Panics
    ///
    /// When `i` is out of bounds.
    fn locate(&self, i: usize) -> (usize, usize) {
        let len = self.len();
        assert!(i < len, "row index {i} out of bounds for length {len}");
        let c = self.ends.partition_point(|&end| end <= i);
        (c, i - self.start(c))
    }

    /// The chunks, for tests that check what two lists share.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }
}

impl<T: Clone> Rows<T> {
    /// Replaces row `i`.
    ///
    /// # Panics
    ///
    /// When `i` is out of bounds.
    pub fn set(&mut self, i: usize, row: T) {
        let (c, j) = self.locate(i);
        Arc::make_mut(&mut self.chunks[c])[j] = row;
    }

    /// Inserts `row` before row `i` (at the end when `i == len`). A chunk
    /// that outgrows [`CHUNK`] splits in two.
    ///
    /// # Panics
    ///
    /// When `i > len`.
    pub fn insert(&mut self, i: usize, row: T) {
        let len = self.len();
        assert!(i <= len, "insert index {i} out of bounds for length {len}");
        if i == len {
            self.push(row);
            return;
        }
        let (c, j) = self.locate(i);
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        chunk.insert(j, row);
        for end in &mut self.ends[c..] {
            *end += 1;
        }
        if chunk.len() > CHUNK {
            let tail = chunk.split_off(chunk.len() / 2);
            self.ends.insert(c, self.ends[c] - tail.len());
            self.chunks.insert(c + 1, Arc::new(tail));
        }
    }

    /// Removes and returns row `i`. A chunk left empty is dropped.
    ///
    /// # Panics
    ///
    /// When `i` is out of bounds.
    pub fn remove(&mut self, i: usize) -> T {
        let (c, j) = self.locate(i);
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let row = chunk.remove(j);
        for end in &mut self.ends[c..] {
            *end -= 1;
        }
        if chunk.is_empty() {
            self.chunks.remove(c);
            self.ends.remove(c);
        }
        row
    }

    /// Appends `row`, filling the last chunk before starting a new one.
    pub fn push(&mut self, row: T) {
        let len = self.len();
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => {
                Arc::make_mut(last).push(row);
                *self.ends.last_mut().expect("one end per chunk") += 1;
            }
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(row);
                self.chunks.push(Arc::new(chunk));
                self.ends.push(len + 1);
            }
        }
    }

    /// The rows copied into one vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T: Clone> From<Vec<T>> for Rows<T> {
    fn from(rows: Vec<T>) -> Rows<T> {
        let mut out = Rows::new();
        for row in rows {
            out.push(row);
        }
        out
    }
}

impl<T> Default for Rows<T> {
    fn default() -> Rows<T> {
        Rows::new()
    }
}

/// Copies the chunk pointers only; the rows stay shared.
impl<T> Clone for Rows<T> {
    fn clone(&self) -> Rows<T> {
        Rows {
            chunks: self.chunks.clone(),
            ends: self.ends.clone(),
        }
    }
}

impl<T> Index<usize> for Rows<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        let (c, j) = self.locate(i);
        &self.chunks[c][j]
    }
}

impl<T: PartialEq> PartialEq for Rows<T> {
    fn eq(&self, other: &Rows<T>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for Rows<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T> IntoIterator for &'a Rows<T> {
    type Item = &'a T;
    type IntoIter = RowsIter<'a, T>;

    fn into_iter(self) -> RowsIter<'a, T> {
        self.iter()
    }
}

impl<T: Serialize> Serialize for Rows<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut JsonWriter) {
        out.raw("[");
        let mut sep = "";
        // Chunk by chunk: the inner loop walks a plain slice.
        for chunk in &self.chunks {
            for row in chunk.iter() {
                out.raw(sep);
                sep = ",";
                row.write_json(out);
            }
        }
        out.raw("]");
    }
}

impl<T: Deserialize + Clone> Deserialize for Rows<T> {
    fn from_value(value: &Value) -> Result<Rows<T>, DeError> {
        Vec::from_value(value).map(Rows::from)
    }
}

/// Iterator over the rows of a [`Rows`], in order.
#[derive(Debug, Clone)]
pub struct RowsIter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Vec<T>>>,
    rows: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for RowsIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(row) = self.rows.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.rows = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for RowsIter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Row = (u32, u32);

    /// Chunks are non-empty, at most `CHUNK` long, and `ends` sums them.
    fn assert_well_formed(rows: &Rows<Row>) {
        assert_eq!(rows.chunks.len(), rows.ends.len());
        let mut end = 0;
        for (chunk, &e) in rows.chunks.iter().zip(&rows.ends) {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK);
            end += chunk.len();
            assert_eq!(e, end);
        }
    }

    /// Every read of `rows` agrees with the `Vec` model.
    fn assert_matches(rows: &Rows<Row>, model: &[Row]) -> Result<(), String> {
        assert_well_formed(rows);
        prop_assert_eq!(rows.len(), model.len());
        prop_assert_eq!(rows.is_empty(), model.is_empty());
        prop_assert_eq!(&rows.to_vec()[..], model);
        prop_assert_eq!(rows.iter().len(), model.len());
        for (i, row) in model.iter().enumerate() {
            prop_assert_eq!(&rows[i], row);
        }
        for key in [0, 1, 63, 64, 200, 511, 512, u32::MAX] {
            prop_assert_eq!(
                rows.binary_search_by(|r| r.0.cmp(&key)),
                model.binary_search_by(|r| r.0.cmp(&key)),
                "key {}",
                key
            );
        }
        prop_assert!(serde_json::to_vec(rows).unwrap() == serde_json::to_vec(model).unwrap());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random set/insert/remove/push sequences read like the same
        /// edits on a `Vec`, and clones taken along the way keep what
        /// they held while the original is written through.
        #[test]
        fn edits_match_a_vec_model(
            initial in 0usize..120,
            ops in proptest::collection::vec(any::<u32>(), 0..1_500),
        ) {
            // Keys stay sorted (`binary_search_by` needs it): even keys
            // up front, so inserts land mid-list as well as at the end.
            let mut model: Vec<Row> = (0..initial as u32).map(|k| (2 * k, 0)).collect();
            let mut rows = Rows::from(model.clone());
            let mut held: Vec<(Rows<Row>, Vec<Row>)> = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                let payload = step as u32;
                let at = (op >> 4) as usize;
                match op % 8 {
                    // Upsert a key: replace in place or insert mid-list.
                    0..=2 => {
                        let key = (op >> 4) % 512;
                        match model.binary_search_by(|r| r.0.cmp(&key)) {
                            Ok(i) => {
                                model[i] = (key, payload);
                                rows.set(i, (key, payload));
                            }
                            Err(i) => {
                                model.insert(i, (key, payload));
                                rows.insert(i, (key, payload));
                            }
                        }
                    }
                    3 if !model.is_empty() => {
                        let i = at % model.len();
                        prop_assert_eq!(rows.remove(i), model.remove(i));
                    }
                    // A run of removals, long enough to empty chunks.
                    4 if !model.is_empty() => {
                        let i = at % model.len();
                        for _ in 0..(at % 80).min(model.len() - i) {
                            prop_assert_eq!(rows.remove(i), model.remove(i));
                        }
                    }
                    5 => {
                        let key = model.last().map_or(0, |r| r.0 + 1);
                        model.push((key, payload));
                        rows.push((key, payload));
                    }
                    6 => held.push((rows.clone(), model.clone())),
                    7 if !model.is_empty() => {
                        let i = at % model.len();
                        model[i].1 = payload;
                        rows.set(i, model[i]);
                    }
                    _ => {}
                }
            }
            assert_matches(&rows, &model)?;
            for (rows, model) in &held {
                assert_matches(rows, model)?;
            }
            let bytes = serde_json::to_vec(&rows).unwrap();
            let decoded: Rows<Row> = serde_json::from_slice(&bytes).unwrap();
            prop_assert_eq!(decoded, rows);
        }
    }

    #[test]
    fn a_write_copies_only_the_chunk_it_touches() {
        let mut rows = Rows::from((0..10 * CHUNK as u32).map(|k| (k, 0)).collect::<Vec<_>>());
        let held = rows.clone();
        rows.set(3 * CHUNK, (3 * CHUNK as u32, 1));
        let shared = |a: &Rows<Row>, b: &Rows<Row>| {
            a.chunks()
                .iter()
                .zip(b.chunks())
                .filter(|(x, y)| Arc::ptr_eq(x, y))
                .count()
        };
        assert_eq!(shared(&rows, &held), 9);
        assert!(!Arc::ptr_eq(&rows.chunks()[3], &held.chunks()[3]));
        assert_eq!(held[3 * CHUNK], (3 * CHUNK as u32, 0));
        // Unshared, the write happens in place.
        let before = Arc::as_ptr(&rows.chunks()[3]);
        rows.set(3 * CHUNK + 1, (3 * CHUNK as u32 + 1, 1));
        assert_eq!(Arc::as_ptr(&rows.chunks()[3]), before);
    }

    #[test]
    fn split_and_emptied_chunks_keep_the_bounds() {
        let mut rows: Rows<Row> = Rows::new();
        for k in 0..CHUNK as u32 {
            rows.push((2 * k, 0));
        }
        assert_eq!(rows.chunks().len(), 1);
        // One more row mid-chunk splits it in two halves.
        rows.insert(1, (1, 0));
        assert_well_formed(&rows);
        assert_eq!(rows.chunks().len(), 2);
        // Emptying the first chunk drops it.
        let first = rows.chunks()[0].len();
        for _ in 0..first {
            rows.remove(0);
        }
        assert_well_formed(&rows);
        assert_eq!(rows.chunks().len(), 1);
        while !rows.is_empty() {
            rows.remove(rows.len() - 1);
        }
        assert_well_formed(&rows);
        assert_eq!(rows.binary_search_by(|r| r.0.cmp(&5)), Err(0));
    }
}
