//! The columnar batch representation every batch path shares.
//!
//! - [`PointColumns`]: a request's symbol values as one column-major
//!   `f64` buffer — the layout the binary-v1 `AWSQ` request frame carries
//!   and the lane kernel loads;
//! - [`BatchResults`]: a batch's outcome as one column-major `f64`
//!   buffer plus a status-byte column — the binary-v1 `AWSB` response
//!   layout — with point errors and the variable-width extras (ROM
//!   summaries, step-response degradations) in sparse side tables.
//!
//! A batch request ([`crate::BatchRequest`]) copies its points, an
//! `AWSQ` payload or the rows of a JSON `points` array, into one
//! [`PointColumns`] buffer, and the row-major adapter
//! [`crate::Shard::evaluate`] converts on the way in, so one engine
//! evaluates every batch.

use crate::batch::{BatchCtl, BatchOutput, DelaySummary, PointResult, PointValue, RomSummary};
use crate::error::{point_code, PointError};
use crate::ServeError;
use awesym_partition::{CompiledModel, Degradation};
use std::sync::atomic::Ordering;

/// Status byte of a slot no evaluation has answered yet. Never leaves the
/// engine: every slot is filled before results are handed out.
pub(crate) const UNFILLED: u8 = u8::MAX;

/// Most values one batch's result buffer may hold: 2^27 `f64`s, 1 GiB.
/// A `step` batch is as wide as its `times` array, so a request of a few
/// megabytes could otherwise ask for terabytes of results; a larger batch
/// is refused with a typed `bad_request` before anything is allocated.
pub const MAX_RESULT_VALUES: usize = 1 << 27;

/// Refuses a batch whose result buffer — `count` points of `cols`
/// values — would exceed [`MAX_RESULT_VALUES`]. Called before anything
/// sized by the product is allocated.
pub(crate) fn check_result_size(count: usize, cols: usize) -> Result<(), ServeError> {
    match count.checked_mul(cols) {
        Some(n) if n <= MAX_RESULT_VALUES => Ok(()),
        _ => Err(ServeError::BadRequest {
            what: format!(
                "batch result has {count} points of {cols} values, \
                 limit is {MAX_RESULT_VALUES} values"
            ),
        }),
    }
}

/// Refuses the first non-finite value of `vals`, naming it as value
/// `index` of `what`. Every decoder checks request values through here,
/// so the JSON and frame paths answer byte for byte alike.
pub(crate) fn check_finite(
    vals: impl IntoIterator<Item = f64>,
    what: &str,
) -> Result<(), ServeError> {
    match vals.into_iter().position(|v| !v.is_finite()) {
        Some(index) => Err(ServeError::BadRequest {
            what: format!("{what} has a non-finite value at index {index}"),
        }),
        None => Ok(()),
    }
}

/// A batch's symbol values, column-major: symbol `s` of point `i` is
/// `values[s * count + i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PointColumns {
    count: usize,
    syms: usize,
    values: Vec<f64>,
    /// Points whose row had another length than `syms` (NDJSON rows, or
    /// row-major adapter input), as `(index, length)` in index order. The
    /// engine answers them with per-point arity errors.
    ragged: Vec<(usize, usize)>,
}

impl PointColumns {
    /// A single point (the `eval` command).
    pub(crate) fn from_point(values: Vec<f64>) -> Self {
        PointColumns {
            count: 1,
            syms: values.len(),
            values,
            ragged: Vec::new(),
        }
    }

    /// Row-major points for a `syms`-symbol model. Rows of another
    /// length are kept as per-point arity errors.
    pub fn from_rows(rows: &[Vec<f64>], syms: usize) -> Self {
        let mut cols = PointColumns::zeroed(rows.len(), syms);
        for (i, row) in rows.iter().enumerate() {
            cols.set_row(i, row.len(), row.iter().copied());
        }
        cols
    }

    /// `count` points of `syms` symbols from little-endian column-major
    /// bytes (the `AWSQ` payload layout). `bytes` must be
    /// `count * syms * 8` long ([`crate::BatchPoints::columns`] checks it).
    pub(crate) fn from_le_bytes(count: usize, syms: usize, bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), count * syms * 8, "payload length mismatch");
        let values = bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect();
        PointColumns {
            count,
            syms,
            values,
            ragged: Vec::new(),
        }
    }

    /// `count` all-zero points of `syms` symbols, filled by
    /// [`PointColumns::set_row`].
    pub(crate) fn zeroed(count: usize, syms: usize) -> Self {
        PointColumns {
            count,
            syms,
            values: vec![0.0; count * syms],
            ragged: Vec::new(),
        }
    }

    /// Stores point `i`, a row of `len` values. A row of the wrong
    /// length is recorded as ragged instead. Rows must arrive in index
    /// order.
    pub(crate) fn set_row(&mut self, i: usize, len: usize, row: impl Iterator<Item = f64>) {
        if len != self.syms {
            self.ragged.push((i, len));
            return;
        }
        for (s, v) in row.enumerate() {
            self.values[s * self.count + i] = v;
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The column-major value buffer.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// How many values point `i` carried.
    pub(crate) fn arity(&self, i: usize) -> usize {
        match self.ragged.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(k) => self.ragged[k].1,
            Err(_) => self.syms,
        }
    }

    /// True when every point in `range` has exactly `syms` values.
    pub(crate) fn uniform(&self, range: std::ops::Range<usize>, syms: usize) -> bool {
        if range.is_empty() {
            return true;
        }
        let first = self.ragged.partition_point(|&(j, _)| j < range.start);
        self.syms == syms && self.ragged.get(first).is_none_or(|&(j, _)| j >= range.end)
    }

    /// Point `i`'s values, in symbol order.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        (0..self.syms).map(move |s| self.values[s * self.count + i])
    }

    /// Copies point `i`'s values into `row`.
    pub(crate) fn gather(&self, i: usize, row: &mut Vec<f64>) {
        row.clear();
        row.extend(self.row(i));
    }

    /// The first point, in index order, that holds a non-finite value —
    /// the point a row-by-row parse of the same batch would trip on.
    pub(crate) fn first_non_finite(&self) -> Option<usize> {
        if self.values.iter().all(|v| v.is_finite()) {
            return None;
        }
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_finite())
            .map(|(at, _)| at % self.count)
            .min()
    }
}

/// What a [`BatchResults`] slot's columns mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResultKind {
    Moments,
    Rom,
    DcGain,
    Step,
    Delays,
}

impl ResultKind {
    pub(crate) fn of(output: &BatchOutput) -> Self {
        match output {
            BatchOutput::Moments => ResultKind::Moments,
            BatchOutput::Rom => ResultKind::Rom,
            BatchOutput::DcGain => ResultKind::DcGain,
            BatchOutput::Step { .. } => ResultKind::Step,
            BatchOutput::Delays => ResultKind::Delays,
        }
    }
}

/// Fixed per-point value width of `output` on `model`: the binary-v1
/// frame's column count (0 for the variable-width `rom`).
pub(crate) fn result_cols(output: &BatchOutput, model: &CompiledModel) -> usize {
    match output {
        BatchOutput::Moments => 2 * model.order(),
        BatchOutput::Rom => 0,
        BatchOutput::DcGain => 1,
        BatchOutput::Delays => 4,
        BatchOutput::Step { times } => times.len(),
    }
}

/// A point's variable-width result part.
#[derive(Debug, Clone, PartialEq)]
enum PointExtra {
    /// The `rom` kind's pole/residue summary.
    Rom(RomSummary),
    /// The `step` kind's order fallback.
    Degraded(Degradation),
}

/// A batch's outcome, column-major: column `k` of point `i` is
/// `values()[k * len() + i]`, `status()[i]` is `0` for a success or the
/// point's [`crate::ErrorCode`] wire byte, and failed points read NaN in
/// every column — byte for byte the binary-v1 response body. Point
/// errors and variable-width extras sit in side tables sorted by point.
///
/// The per-kind layout lives here alone, behind the `set_*` setters the
/// engine fills slots with and the getters the encoders read:
///
/// | kind | columns | side table |
/// |---|---|---|
/// | `moments` | the `2q` moments | — |
/// | `dc_gain` | the gain | — |
/// | `step` | one sample per time | order fallback, when one fired |
/// | `rom` | none | the pole/residue summary |
/// | `delays` | `elmore`, `ln2_elmore`, `d2m`, `two_pole` (NaN = none) | — |
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResults {
    kind: ResultKind,
    cols: usize,
    count: usize,
    values: Vec<f64>,
    status: Vec<u8>,
    errors: Vec<(usize, PointError)>,
    extras: Vec<(usize, PointExtra)>,
    /// Panics caught and converted to `internal` point errors.
    pub panics_caught: u64,
    /// Chunks whose evaluation crashed outside the per-point guard (under
    /// `fault-injection`, an injected chunk crash), on whichever thread
    /// ran them; their unfinished points answer `internal`, and that
    /// thread carries on with a fresh evaluator. A shard adds this count
    /// to its `chunk_crashes` and charges its breaker when it is nonzero.
    /// Each is also one of [`BatchResults::panics_caught`].
    pub chunk_crashes: u64,
    /// Points whose ROM degraded to a lower approximation order.
    pub degraded_points: u64,
    /// True when the deadline fired before every point was evaluated.
    pub deadline_exceeded: bool,
}

impl BatchResults {
    /// `count` unfilled slots of `cols` columns for `output`. Callers
    /// sizing a whole batch check it with [`check_result_size`] first.
    pub(crate) fn new(output: &BatchOutput, cols: usize, count: usize) -> Self {
        let mut r = BatchResults {
            kind: ResultKind::of(output),
            cols,
            count: 0,
            values: Vec::new(),
            status: Vec::new(),
            errors: Vec::new(),
            extras: Vec::new(),
            panics_caught: 0,
            chunk_crashes: 0,
            degraded_points: 0,
            deadline_exceeded: false,
        };
        r.reset(count);
        r
    }

    /// Empties the buffers for `count` new unfilled slots, keeping their
    /// capacity.
    pub(crate) fn reset(&mut self, count: usize) {
        self.count = count;
        self.values.clear();
        self.values.resize(self.cols * count, f64::NAN);
        self.status.clear();
        self.status.resize(count, UNFILLED);
        self.errors.clear();
        self.extras.clear();
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Values per point (the binary frame's column count).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The column-major value buffer (`cols() × len()`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The status column: `0` ok, else the error code's wire byte.
    pub fn status(&self) -> &[u8] {
        &self.status
    }

    /// Points that evaluated successfully.
    pub fn ok_count(&self) -> usize {
        self.status.iter().filter(|&&b| b == 0).count()
    }

    /// Point `i`'s error, `None` when it succeeded.
    pub fn error(&self, i: usize) -> Option<&PointError> {
        let k = self.errors.binary_search_by_key(&i, |(j, _)| *j).ok()?;
        Some(&self.errors[k].1)
    }

    pub(crate) fn kind(&self) -> ResultKind {
        self.kind
    }

    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Point `i`'s columns: its moments or step samples.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        (0..self.cols).map(move |k| self.values[k * self.count + i])
    }

    /// Point `i`'s DC gain.
    pub(crate) fn dc_gain(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Point `i`'s delay metrics.
    pub(crate) fn delays(&self, i: usize) -> DelaySummary {
        let at = |k: usize| self.values[k * self.count + i];
        DelaySummary {
            elmore: at(0),
            ln2_elmore: at(1),
            d2m: at(2),
            two_pole: Some(at(3)).filter(|v| !v.is_nan()),
        }
    }

    /// Point `i`'s ROM summary.
    pub(crate) fn rom(&self, i: usize) -> Option<&RomSummary> {
        match self.extra(i)? {
            PointExtra::Rom(r) => Some(r),
            PointExtra::Degraded(_) => None,
        }
    }

    /// The order fallback point `i`'s step response took, if any.
    pub(crate) fn degraded(&self, i: usize) -> Option<&Degradation> {
        match self.extra(i)? {
            PointExtra::Degraded(d) => Some(d),
            PointExtra::Rom(_) => None,
        }
    }

    fn extra(&self, i: usize) -> Option<&PointExtra> {
        let k = self.extras.binary_search_by_key(&i, |(j, _)| *j).ok()?;
        Some(&self.extras[k].1)
    }

    /// Stores point `i`'s first `row.len()` columns.
    fn set_row(&mut self, i: usize, row: &[f64]) {
        for (k, &v) in row.iter().take(self.cols).enumerate() {
            self.values[k * self.count + i] = v;
        }
    }

    /// Stores point `i`'s moments.
    pub(crate) fn set_moments(&mut self, i: usize, moments: &[f64]) {
        self.set_row(i, moments);
    }

    /// Stores point `i`'s DC gain.
    pub(crate) fn set_dc_gain(&mut self, i: usize, gain: f64) {
        self.set_row(i, &[gain]);
    }

    /// Stores point `i`'s step samples and the order fallback they took.
    pub(crate) fn set_step(&mut self, i: usize, samples: &[f64], degraded: Option<Degradation>) {
        self.set_row(i, samples);
        if let Some(d) = degraded {
            self.extras.push((i, PointExtra::Degraded(d)));
        }
    }

    /// Stores point `i`'s ROM summary.
    pub(crate) fn set_rom(&mut self, i: usize, summary: RomSummary) {
        self.extras.push((i, PointExtra::Rom(summary)));
    }

    /// Stores point `i`'s delay metrics.
    pub(crate) fn set_delays(&mut self, i: usize, d: &DelaySummary) {
        self.set_row(
            i,
            &[
                d.elmore,
                d.ln2_elmore,
                d.d2m,
                d.two_pole.unwrap_or(f64::NAN),
            ],
        );
    }

    pub(crate) fn succeed(&mut self, i: usize) {
        self.status[i] = 0;
    }

    /// Marks point `i` failed: status byte, side-table entry, and NaN in
    /// every column.
    pub(crate) fn fail(&mut self, i: usize, e: PointError) {
        self.status[i] = point_code(&e).wire_byte();
        for k in 0..self.cols {
            self.values[k * self.count + i] = f64::NAN;
        }
        self.errors.push((i, e));
    }

    /// Fails every unfilled slot from `from` on with `e`.
    pub(crate) fn fail_unfilled(&mut self, from: usize, e: &PointError) {
        for i in from..self.count {
            if self.status[i] == UNFILLED {
                self.fail(i, e.clone());
            }
        }
    }

    /// Copies a chunk's results (slots `0..chunk.len()`) into slots
    /// `start..` of this batch, moving its side-table entries.
    pub(crate) fn absorb(&mut self, start: usize, chunk: &mut BatchResults) {
        let len = chunk.count;
        for k in 0..self.cols {
            self.values[k * self.count + start..][..len]
                .copy_from_slice(&chunk.values[k * len..][..len]);
        }
        self.status[start..start + len].copy_from_slice(&chunk.status);
        self.errors
            .extend(chunk.errors.drain(..).map(|(i, e)| (i + start, e)));
        self.extras
            .extend(chunk.extras.drain(..).map(|(i, x)| (i + start, x)));
    }

    /// Seals a batch once every chunk is in: orders the side tables by
    /// point (chunks finish in any order) and takes the health counters
    /// from the batch's control block.
    pub(crate) fn finish(&mut self, ctl: &BatchCtl) {
        debug_assert!(!self.status.contains(&UNFILLED), "every slot filled");
        self.errors.sort_unstable_by_key(|(i, _)| *i);
        self.extras.sort_unstable_by_key(|(i, _)| *i);
        self.panics_caught = ctl.panics.load(Ordering::Relaxed);
        self.chunk_crashes = ctl.crashes.load(Ordering::Relaxed);
        self.degraded_points = ctl.degraded.load(Ordering::Relaxed);
        self.deadline_exceeded = ctl.expired.load(Ordering::Relaxed);
    }

    /// Point `i` as a row-major [`PointResult`] (allocates).
    pub fn point(&self, i: usize) -> PointResult {
        if let Some(e) = self.error(i) {
            return Err(e.clone());
        }
        Ok(match self.kind {
            ResultKind::Moments => PointValue::Moments(self.row(i).collect()),
            ResultKind::DcGain => PointValue::DcGain(self.dc_gain(i)),
            ResultKind::Step => PointValue::Step {
                samples: self.row(i).collect(),
                degraded: self.degraded(i).cloned(),
            },
            ResultKind::Rom => PointValue::Rom(self.rom(i).cloned().ok_or_else(|| {
                PointError::internal("rom point has no summary in the result table")
            })?),
            ResultKind::Delays => PointValue::Delays(self.delays(i)),
        })
    }
}

#[cfg(test)]
impl BatchResults {
    /// Row-major point results in columnar form (test fixtures).
    pub(crate) fn from_points(output: &BatchOutput, cols: usize, points: Vec<PointResult>) -> Self {
        let mut r = BatchResults::new(output, cols, points.len());
        for (i, p) in points.into_iter().enumerate() {
            match p {
                Err(e) => r.fail(i, e),
                Ok(v) => {
                    match v {
                        PointValue::Moments(m) => r.set_moments(i, &m),
                        PointValue::DcGain(g) => r.set_dc_gain(i, g),
                        PointValue::Step { samples, degraded } => r.set_step(i, &samples, degraded),
                        PointValue::Rom(summary) => r.set_rom(i, summary),
                        PointValue::Delays(d) => r.set_delays(i, &d),
                    }
                    r.succeed(i);
                }
            }
        }
        r
    }
}

impl Default for BatchResults {
    fn default() -> Self {
        BatchResults::new(&BatchOutput::Moments, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_bytes_fill_the_same_columns() {
        let rows = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0]];
        let cols = PointColumns::from_rows(&rows, 2);
        assert_eq!(cols.len(), 3);
        assert_eq!(&cols.values()[..2], &[1.0, 2.0]);
        assert_eq!(&cols.values()[3..5], &[10.0, 20.0]);
        assert_eq!((cols.arity(0), cols.arity(1), cols.arity(2)), (2, 2, 1));
        assert!(cols.uniform(0..2, 2));
        assert!(!cols.uniform(1..3, 2));
        assert!(!cols.uniform(0..2, 3));
        let mut row = Vec::new();
        cols.gather(1, &mut row);
        assert_eq!(row, [2.0, 20.0]);
        assert!(cols.row(1).eq([2.0, 20.0]));

        let bytes: Vec<u8> = [1.0f64, 2.0, 10.0, 20.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let from_bytes = PointColumns::from_le_bytes(2, 2, &bytes);
        assert_eq!(from_bytes, PointColumns::from_rows(&rows[..2], 2));
    }

    #[test]
    fn first_non_finite_follows_row_major_order() {
        // Point 1 symbol 1 comes before point 2 symbol 0 row by row, even
        // though it sits later in the column-major buffer.
        let rows = vec![
            vec![1.0, 1.0],
            vec![1.0, f64::INFINITY],
            vec![f64::NAN, 1.0],
        ];
        let cols = PointColumns::from_rows(&rows, 2);
        assert_eq!(cols.first_non_finite(), Some(1));
        let err = check_finite(cols.row(1), "each point").unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad request: each point has a non-finite value at index 1"
        );
        assert_eq!(
            PointColumns::from_rows(&rows[..1], 2).first_non_finite(),
            None
        );
    }

    #[test]
    fn chunks_absorb_into_column_major_slots() {
        let out = BatchOutput::DcGain;
        let mut all = BatchResults::new(&out, 1, 4);
        let mut chunk = BatchResults::new(&out, 1, 2);
        chunk.set_dc_gain(0, 5.0);
        chunk.succeed(0);
        chunk.fail(1, PointError::numeric("nan"));
        all.absorb(2, &mut chunk);
        chunk.reset(2);
        chunk.set_dc_gain(0, 1.0);
        chunk.succeed(0);
        chunk.set_dc_gain(1, 2.0);
        chunk.succeed(1);
        all.absorb(0, &mut chunk);
        all.finish(&BatchCtl::new(None, 0));
        assert_eq!(all.status(), &[0, 0, 0, 6]);
        assert_eq!(&all.values()[..3], &[1.0, 2.0, 5.0]);
        assert!(all.values()[3].is_nan());
        assert_eq!(all.ok_count(), 3);
        assert_eq!(
            all.error(3).map(|e| e.code.as_str()),
            Some("numeric_unstable")
        );
        assert_eq!(all.point(2), Ok(PointValue::DcGain(5.0)));
    }

    #[test]
    fn result_size_is_checked_without_overflow() {
        assert!(check_result_size(8, 4).is_ok());
        assert!(check_result_size(MAX_RESULT_VALUES, 1).is_ok());
        let edge = MAX_RESULT_VALUES / 4;
        for (count, cols) in [(edge + 1, 4), (1 << 20, 1 << 22), (usize::MAX, 2)] {
            match check_result_size(count, cols) {
                Err(ServeError::BadRequest { what }) => {
                    assert!(what.contains("limit is"), "{what}");
                }
                other => panic!("{count} x {cols}: {other:?}"),
            }
        }
    }

    #[test]
    fn per_kind_setters_and_getters_round_trip() {
        let d = DelaySummary {
            elmore: 1.0,
            ln2_elmore: 0.5,
            d2m: 0.75,
            two_pole: None,
        };
        let mut r = BatchResults::new(&BatchOutput::Delays, 4, 2);
        r.set_delays(0, &d);
        r.set_delays(
            1,
            &DelaySummary {
                two_pole: Some(0.6),
                ..d.clone()
            },
        );
        assert_eq!(r.delays(0), d);
        assert_eq!(r.delays(1).two_pole, Some(0.6));
        assert!(r.values()[6].is_nan(), "absent two_pole is NaN");
    }
}
