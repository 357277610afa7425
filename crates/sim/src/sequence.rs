//! Fully specified binary test sequences.

use crate::error::SimError;
use std::fmt;

/// A test sequence `T`: one fully specified binary vector per time unit,
/// applied to the primary inputs of a circuit.
///
/// In the paper's notation, `T(u)` is the vector at time unit `u` and
/// `T_i` is the sequence restricted to input `i`, so `T_i(u)` is
/// [`TestSequence::value`]`(u, i)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TestSequence {
    num_inputs: usize,
    /// Time-major storage: bit for input `i` at time `u` lives at
    /// `u * num_inputs + i`.
    bits: Vec<bool>,
}

impl TestSequence {
    /// Creates an empty sequence over `num_inputs` inputs.
    pub fn new(num_inputs: usize) -> Self {
        TestSequence {
            num_inputs,
            bits: Vec::new(),
        }
    }

    /// Builds a sequence from one `Vec<bool>` per time unit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RaggedRows`] if rows have differing widths.
    pub fn from_rows(rows: Vec<Vec<bool>>) -> Result<Self, SimError> {
        let num_inputs = rows.first().map_or(0, Vec::len);
        let mut bits = Vec::with_capacity(rows.len() * num_inputs);
        for (ri, row) in rows.iter().enumerate() {
            if row.len() != num_inputs {
                return Err(SimError::RaggedRows {
                    expected: num_inputs,
                    row: ri,
                    got: row.len(),
                });
            }
            bits.extend_from_slice(row);
        }
        Ok(TestSequence { num_inputs, bits })
    }

    /// Parses rows of `'0'`/`'1'` characters, one string per time unit —
    /// the format the paper's tables use.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadVectorChar`] for other characters and
    /// [`SimError::RaggedRows`] for differing widths.
    ///
    /// # Example
    ///
    /// ```
    /// use wbist_sim::TestSequence;
    /// # fn main() -> Result<(), wbist_sim::SimError> {
    /// let t = TestSequence::parse_rows(&["0111", "1001"])?;
    /// assert_eq!(t.len(), 2);
    /// assert!(t.value(0, 1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse_rows(rows: &[&str]) -> Result<Self, SimError> {
        let mut out = Vec::with_capacity(rows.len());
        for (ri, row) in rows.iter().enumerate() {
            let mut bits = Vec::with_capacity(row.len());
            for ch in row.chars() {
                match ch {
                    '0' => bits.push(false),
                    '1' => bits.push(true),
                    c if c.is_whitespace() => {}
                    c => return Err(SimError::BadVectorChar { row: ri, ch: c }),
                }
            }
            out.push(bits);
        }
        Self::from_rows(out)
    }

    /// Number of time units (the paper's `L`).
    pub fn len(&self) -> usize {
        self.bits.len().checked_div(self.num_inputs).unwrap_or(0)
    }

    /// Whether the sequence has no time units.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of primary inputs each vector drives.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The vector applied at time unit `u` (the paper's `T(u)`).
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.len()`.
    pub fn row(&self, u: usize) -> &[bool] {
        &self.bits[u * self.num_inputs..(u + 1) * self.num_inputs]
    }

    /// The value applied to input `i` at time `u` (the paper's `T_i(u)`).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    pub fn value(&self, u: usize, i: usize) -> bool {
        assert!(i < self.num_inputs, "input index out of range");
        self.bits[u * self.num_inputs + i]
    }

    /// The sequence restricted to input `i` (the paper's `T_i`), as a
    /// fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input_track(&self, i: usize) -> Vec<bool> {
        (0..self.len()).map(|u| self.value(u, i)).collect()
    }

    /// Appends a vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.num_inputs()`.
    pub fn push_row(&mut self, row: &[bool]) {
        assert_eq!(row.len(), self.num_inputs, "row width mismatch");
        self.bits.extend_from_slice(row);
    }

    /// Appends all vectors of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the input widths differ.
    pub fn append(&mut self, other: &TestSequence) {
        assert_eq!(other.num_inputs, self.num_inputs, "sequence width mismatch");
        self.bits.extend_from_slice(&other.bits);
    }

    /// The subsequence consisting of time units `range` (clamped to the
    /// sequence length).
    pub fn slice(&self, range: std::ops::Range<usize>) -> TestSequence {
        let lo = range.start.min(self.len());
        let hi = range.end.min(self.len());
        TestSequence {
            num_inputs: self.num_inputs,
            bits: self.bits[lo * self.num_inputs..hi * self.num_inputs].to_vec(),
        }
    }

    /// A copy with the time units in `omit` (sorted or not) removed.
    /// Used by static compaction.
    pub fn without_rows(&self, omit: &[usize]) -> TestSequence {
        let omit: std::collections::HashSet<usize> = omit.iter().copied().collect();
        let mut out = TestSequence::new(self.num_inputs);
        for u in 0..self.len() {
            if !omit.contains(&u) {
                out.push_row(self.row(u));
            }
        }
        out
    }

    /// Iterates over the vectors in time order.
    pub fn iter(&self) -> impl Iterator<Item = &[bool]> + '_ {
        self.bits.chunks_exact(self.num_inputs.max(1))
    }

    /// The input period: the smallest `p < len` with
    /// `row(u) == row(u − p)` for every `u ≥ p`, or `None` when there is
    /// none. A weighted sequence `T_G` replays each `α_i` on input `i`,
    /// so its period divides `lcm |α_i|`.
    ///
    /// The smallest period is `len` minus the longest proper border of
    /// the row string, which the KMP failure function finds in
    /// O(len × inputs).
    pub fn period(&self) -> Option<usize> {
        let len = self.len();
        // border[i]: the longest proper border of rows 0..=i.
        let mut border = vec![0usize; len];
        let mut k = 0;
        for i in 1..len {
            while k > 0 && self.row(i) != self.row(k) {
                k = border[k - 1];
            }
            if self.row(i) == self.row(k) {
                k += 1;
            }
            border[i] = k;
        }
        let p = len - border.last().copied().unwrap_or(0);
        (p < len).then_some(p)
    }
}

impl fmt::Display for TestSequence {
    /// One row of `0`/`1` characters per time unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for u in 0..self.len() {
            for &b in self.row(u) {
                f.write_str(if b { "1" } else { "0" })?;
            }
            if u + 1 < self.len() {
                f.write_str("\n")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_access() {
        let t = TestSequence::parse_rows(&["0111", "1001", "0111"]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_inputs(), 4);
        assert_eq!(t.row(1), &[true, false, false, true]);
        assert!(!t.value(0, 0));
        assert!(t.value(0, 3));
        assert_eq!(t.input_track(0), vec![false, true, false]);
    }

    #[test]
    fn parse_rejects_bad_char() {
        let err = TestSequence::parse_rows(&["01x1"]).unwrap_err();
        assert!(matches!(err, SimError::BadVectorChar { row: 0, ch: 'x' }));
    }

    #[test]
    fn parse_rejects_ragged() {
        let err = TestSequence::parse_rows(&["01", "011"]).unwrap_err();
        assert!(matches!(err, SimError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn push_and_append() {
        let mut t = TestSequence::new(2);
        t.push_row(&[true, false]);
        let mut u = TestSequence::new(2);
        u.push_row(&[false, true]);
        t.append(&u);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1), &[false, true]);
    }

    #[test]
    fn slice_and_without_rows() {
        let t = TestSequence::parse_rows(&["00", "01", "10", "11"]).unwrap();
        let s = t.slice(1..3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[false, true]);
        let w = t.without_rows(&[0, 2]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.row(0), &[false, true]);
        assert_eq!(w.row(1), &[true, true]);
        // Out-of-range slice bounds clamp.
        assert_eq!(t.slice(3..99).len(), 1);
    }

    #[test]
    fn display_roundtrip() {
        let t = TestSequence::parse_rows(&["010", "101"]).unwrap();
        let text = t.to_string();
        let rows: Vec<&str> = text.lines().collect();
        let t2 = TestSequence::parse_rows(&rows).unwrap();
        assert_eq!(t, t2);
    }

    /// The KMP period equals the smallest `p` found by brute force, on
    /// every sequence of up to nine rows over a two-letter row alphabet.
    #[test]
    fn period_is_the_smallest_repeat_distance() {
        let brute = |t: &TestSequence| {
            (1..t.len()).find(|&p| (p..t.len()).all(|u| t.row(u) == t.row(u - p)))
        };
        for len in 0..10 {
            for mask in 0u32..1 << len {
                let rows: Vec<Vec<bool>> =
                    (0..len).map(|u| vec![mask >> u & 1 == 1, true]).collect();
                let t = TestSequence::from_rows(rows).unwrap();
                assert_eq!(t.period(), brute(&t), "{t}");
            }
        }
        let t = TestSequence::parse_rows(&["01", "10", "11", "01", "10", "11", "01"]).unwrap();
        assert_eq!(t.period(), Some(3));
        assert_eq!(TestSequence::new(3).period(), None);
    }

    #[test]
    fn whitespace_in_rows_ignored() {
        let t = TestSequence::parse_rows(&["0 1 1 1"]).unwrap();
        assert_eq!(t.num_inputs(), 4);
    }
}
