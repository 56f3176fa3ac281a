//! Typed, vectorized hash aggregation.
//!
//! One kernel serves every aggregate, grouped or not (morsel-parallel,
//! cold queries included once their columns are loaded, and the serial
//! fallback, which is the same kernel run inline): a plain aggregate is a GROUP BY with zero key columns —
//! the paper's §5.2.2 hybrid operator, filter and every aggregate in one
//! pass per morsel. It works column-at-a-time, never row-at-a-time:
//!
//! 1. **Group ids.** Each key column of a morsel is mapped to a dense
//!    `u32` id per row through an `IdTable` — a flat open-addressing
//!    table with a multiplicative hash, keys stored inline and no
//!    per-entry heap allocation; an int key over a dense domain skips the
//!    hash and direct-addresses an id array instead (`IntIds`). A text
//!    key is its dictionary code, so it takes the same id array: one
//!    slot per entry, no string hashed or compared per row. NULL keys
//!    share one id; float keys group by bit pattern, which is exactly how
//!    `Value::total_cmp` equates them.
//!    Multi-column keys intern the pair `(id so far, id of the next
//!    column)` in a further table, one column at a time. Ids are handed
//!    out in row order, so id order *is* first-appearance order. Zero key
//!    columns are exactly one group, whether or not a row qualifies, and
//!    build no id vector at all.
//! 2. **Typed state.** Every aggregate folds its argument column (a typed
//!    slice; arbitrary expressions are evaluated once per morsel with
//!    [`Expr::eval_column`]) into per-group vectors — `i128` sums, `f64`
//!    sums, counts, typed min/max — in row order. A morsel's rows may
//!    also arrive in several steps (a join folds a probe morsel's pairs
//!    in bounded slices, `GroupFold`); they fold in arrival order, exactly
//!    as if they had come in one.
//! 3. **Merge.** Per-morsel [`GroupPartial`]s merge in morsel order
//!    through the same id mapping (a partial's key columns are just rows
//!    to group again), so group order, integer results and float
//!    summation order depend only on the morsel boundaries — never on the
//!    thread count or on scheduling.

use std::cmp::Ordering;
use std::sync::Arc;

use nodb_types::profile::{self, Phase};
use nodb_types::resource::charge_current;
use nodb_types::{
    CancelCheck, ColumnData, Conjunction, DataType, Error, Result, Selection, StrDict,
};

use crate::agg::AggFunc;
use crate::cols::Cols;
use crate::columnar::{filter_positions_range, AggSpec};
use crate::expr::Expr;

/// Marks an empty slot; no key ever receives this id.
const EMPTY: u32 = u32::MAX;

/// A key the flat tables can store inline.
pub(crate) trait TableKey: Copy {
    /// What empty slots hold; never compared.
    const FILLER: Self;
    /// Multiplicative hash whose *high* bits are well mixed.
    fn hash(self) -> u64;
    /// Key equality.
    fn same(self, other: Self) -> bool;
}

const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl TableKey for i64 {
    const FILLER: i64 = 0;

    #[inline]
    fn hash(self) -> u64 {
        // Fold the high half in first: float bit patterns and packed id
        // pairs carry most of their entropy there.
        let x = self as u64;
        (x ^ (x >> 32)).wrapping_mul(HASH_MUL)
    }

    #[inline]
    fn same(self, other: i64) -> bool {
        self == other
    }
}

/// Flat open-addressing map from a typed key to a dense `u32` id, ids
/// assigned in first-insertion order. Linear probing at a load factor of
/// at most one half; the slot vector is the only allocation.
#[derive(Debug)]
pub(crate) struct IdTable<K> {
    slots: Vec<(K, u32)>,
    /// `64 - log2(slots.len())`: the hash's high bits index the table.
    shift: u32,
    /// Ids handed out so far.
    next: u32,
}

impl<K: TableKey> IdTable<K> {
    /// A table that holds `keys` distinct keys before it first grows.
    pub(crate) fn with_capacity(keys: usize) -> IdTable<K> {
        let slots = keys.saturating_mul(2).next_power_of_two().max(16);
        IdTable {
            slots: vec![(K::FILLER, EMPTY); slots],
            shift: 64 - slots.trailing_zeros(),
            next: 0,
        }
    }

    /// Number of ids handed out.
    pub(crate) fn len(&self) -> usize {
        self.next as usize
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<(K, u32)>()
    }

    /// Hand out the next id without storing a key — how a column's NULL
    /// group gets its place in first-appearance order.
    fn alloc_id(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// The id of `key`, if it was interned.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = (key.hash() >> self.shift) as usize & mask;
        loop {
            let (k, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if k.same(key) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `key`, assigning the next id on first sight. Callers
    /// bound the number of distinct keys below [`EMPTY`].
    #[inline]
    pub(crate) fn intern(&mut self, key: K) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = (key.hash() >> self.shift) as usize & mask;
        loop {
            let (k, id) = self.slots[i];
            if id == EMPTY {
                break;
            }
            if k.same(key) {
                return id;
            }
            i = (i + 1) & mask;
        }
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
            return self.intern(key);
        }
        let id = self.alloc_id();
        self.slots[i] = (key, id);
        id
    }

    #[cold]
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(K::FILLER, EMPTY); doubled]);
        self.shift -= 1;
        for (k, id) in old {
            if id != EMPTY {
                self.place(k, id);
            }
        }
    }

    /// Store a key known to be absent under a given id, in a table with
    /// room for it.
    fn place(&mut self, key: K, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (key.hash() >> self.shift) as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (key, id);
    }
}

/// How many slots a direct-addressed integer key table — a GROUP BY
/// key's id array, a join table's run offsets — may span per row
/// interned so far. The hashed table keeps its load at or
/// below one half, so `n` distinct keys take at least `2n` slots of 16
/// bytes (key and id, padded): 32 bytes per key. A direct-addressed slot
/// is 4 bytes, so at 8 slots per row the array is never larger than the
/// hashed table would be for the same rows if every row held a new key.
pub const DENSE_SLOTS_PER_ROW: u64 = 8;

/// Map from an `i64` key to a dense `u32` id, ids in first-insertion
/// order — an [`IdTable`] whose keys are direct-addressed while they fit a
/// dense domain. Each batch's key range is reserved before its keys are
/// interned ([`IntIds::assign`]); while the span of every key seen
/// (`max - min + 1`) stays within [`DENSE_SLOTS_PER_ROW`] slots per row,
/// key `k`'s id sits at `ids[k - base]` and an intern is one array
/// access. A batch that widens the span beyond that converts the table to
/// the hashed one, ids kept, in the middle of its use.
#[derive(Debug)]
enum IntIds {
    Dense {
        /// The key of `ids[0]`.
        base: i64,
        /// One id per key of the span; [`EMPTY`] where no key was seen.
        ids: Vec<u32>,
        /// Ids handed out so far.
        next: u32,
        /// Rows announced so far: the budget of the span.
        rows: u64,
    },
    Hashed(IdTable<i64>),
}

impl IntIds {
    fn new() -> IntIds {
        IntIds::Dense {
            base: 0,
            ids: Vec::new(),
            next: 0,
            rows: 0,
        }
    }

    /// Number of ids handed out.
    fn len(&self) -> usize {
        match self {
            IntIds::Dense { next, .. } => *next as usize,
            IntIds::Hashed(t) => t.len(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            IntIds::Dense { ids, .. } => ids.len() * 4,
            IntIds::Hashed(t) => t.heap_bytes(),
        }
    }

    /// Prepare to intern `rows` more rows whose keys lie in `lo..=hi` (no
    /// range when none of them has a key): widen the array to cover the
    /// range, or convert to the hashed table when the span would exceed
    /// the budget. `capacity` sizes a hashed table made here.
    fn reserve(&mut self, range: Option<(i64, i64)>, rows: usize, capacity: usize) {
        let IntIds::Dense {
            base,
            ids,
            next,
            rows: budget,
        } = self
        else {
            return;
        };
        *budget = budget.saturating_add(rows as u64);
        let Some((lo, hi)) = range else {
            return;
        };
        let (lo, hi) = match ids.len() {
            0 => (lo, hi),
            n => (lo.min(*base), hi.max(last_key(*base, n))),
        };
        match dense_span(lo, hi, *budget) {
            Some(span) => {
                if span == ids.len() {
                    return;
                }
                let mut wider = vec![EMPTY; span];
                if !ids.is_empty() {
                    let at = slot(*base, lo);
                    wider[at..at + ids.len()].copy_from_slice(ids);
                }
                *ids = wider;
                *base = lo;
            }
            None => {
                let mut table = IdTable::with_capacity(capacity.max(*next as usize));
                for (slot, &id) in ids.iter().enumerate() {
                    if id != EMPTY {
                        table.place(base.wrapping_add(slot as i64), id);
                    }
                }
                table.next = *next;
                *self = IntIds::Hashed(table);
            }
        }
    }

    /// Write the id of each selected row's key into `ids` (`ids[k]` for
    /// the `k`-th selected row), handing out new ids in row order; NULL
    /// rows share `null_id`, allocated on first sight. The batch's key
    /// range is reserved first, which widens the array or converts the
    /// table to the hashed one; `capacity` sizes a hashed table made here.
    fn assign<T: Copy + Into<i64>>(
        &mut self,
        xs: &[T],
        nulls: Option<&[bool]>,
        sel: &Selection,
        ids: &mut [u32],
        null_id: &mut Option<u32>,
        capacity: usize,
    ) {
        if let IntIds::Dense { .. } = self {
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for_rows(xs, nulls, sel, |_, x| {
                if let Some(&x) = x {
                    lo = lo.min(x.into());
                    hi = hi.max(x.into());
                }
            });
            self.reserve((lo <= hi).then_some((lo, hi)), sel.len(), capacity);
        }
        match self {
            IntIds::Dense {
                base,
                ids: slots,
                next,
                ..
            } => {
                let base = *base;
                for_rows(xs, nulls, sel, |k, x| {
                    let id = match x {
                        Some(&x) => &mut slots[slot(x.into(), base)],
                        None => null_id.get_or_insert(EMPTY),
                    };
                    if *id == EMPTY {
                        *id = *next;
                        *next += 1;
                    }
                    ids[k] = *id;
                })
            }
            IntIds::Hashed(t) => for_rows(xs, nulls, sel, |k, x| {
                ids[k] = match x {
                    Some(&x) => t.intern(x.into()),
                    None => *null_id.get_or_insert_with(|| t.alloc_id()),
                }
            }),
        }
    }
}

/// Map from a text key to a dense `u32` id: its dictionary code through
/// an [`IntIds`], so a dictionary of few entries is one small id array.
/// The first dictionary with an entry keys the ids by its codes as they
/// are; text from any other dictionary is looked up in it once per entry,
/// and text it lacks is keyed past its end through `extra`. (A morsel
/// with no qualifying row hands the merge an empty key column with a
/// dictionary of its own.)
#[derive(Debug)]
struct TextIds {
    home: Option<Arc<StrDict>>,
    extra: StrDict,
    ids: IntIds,
}

impl TextIds {
    fn new() -> TextIds {
        TextIds {
            home: None,
            extra: StrDict::new(),
            ids: IntIds::new(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.ids.heap_bytes() + self.extra.approx_bytes()
    }

    /// [`IntIds::assign`] for the codes `codes` of `dict`.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &mut self,
        dict: &Arc<StrDict>,
        codes: &[u32],
        nulls: Option<&[bool]>,
        sel: &Selection,
        ids: &mut [u32],
        null_id: &mut Option<u32>,
        capacity: usize,
    ) -> Result<()> {
        // Until a key was coded, every id is the NULL one.
        if self
            .home
            .as_ref()
            .is_none_or(|h| h.is_empty() && self.extra.is_empty())
        {
            self.home = Some(Arc::clone(dict));
        }
        let home = self.home.as_ref().expect("set above");
        if Arc::ptr_eq(home, dict) {
            self.ids.assign(codes, nulls, sel, ids, null_id, capacity);
            return Ok(());
        }
        let (n, extra) = (sel.len(), &mut self.extra);
        let mut keyed = vec![-1i64; dict.len()];
        let mut keys = vec![0i64; n];
        let mut key_nulls = nulls.map(|_| vec![false; n]);
        let mut failed = None;
        for_rows(codes, nulls, sel, |k, c| match c {
            Some(&c) => {
                let key = &mut keyed[c as usize];
                if *key < 0 {
                    let s = dict.get(c);
                    *key = match home.lookup(s) {
                        Some(code) => i64::from(code),
                        None => match extra.intern(s) {
                            Ok(code) => (home.len() as i64) + i64::from(code),
                            Err(e) => {
                                failed.get_or_insert(e);
                                0
                            }
                        },
                    };
                }
                keys[k] = *key;
            }
            None => key_nulls.as_mut().expect("NULLs come with a mask")[k] = true,
        });
        if let Some(e) = failed {
            return Err(e);
        }
        let all = Selection::Range(0..n);
        self.ids
            .assign(&keys, key_nulls.as_deref(), &all, ids, null_id, capacity);
        Ok(())
    }
}

/// The largest key of a dense array of `n` slots from `base`.
fn last_key(base: i64, n: usize) -> i64 {
    base.wrapping_add((n - 1) as i64)
}

/// Slot of `key` in a direct-addressed array starting at key `base`;
/// keys below `base` wrap to slots past any array's end.
#[inline]
pub(crate) fn slot(key: i64, base: i64) -> usize {
    (key as u64).wrapping_sub(base as u64) as usize
}

/// The span `hi - lo + 1` of keys from `rows` rows when it is dense
/// enough to direct-address: at most [`DENSE_SLOTS_PER_ROW`] slots per
/// row.
pub(crate) fn dense_span(lo: i64, hi: i64, rows: u64) -> Option<usize> {
    // `hi - lo` in two's complement is exact as a u64, even from
    // `i64::MIN` to `i64::MAX`; only the `+ 1` can overflow.
    let span = (hi as u64).wrapping_sub(lo as u64).checked_add(1)?;
    if lo > hi || span > rows.saturating_mul(DENSE_SLOTS_PER_ROW) {
        return None;
    }
    usize::try_from(span).ok()
}

/// Visit the selected rows of a typed slice in order, calling `f(k, v)`
/// for the `k`-th selected row with `None` for NULL.
#[inline(always)]
fn for_rows<'x, T>(
    xs: &'x [T],
    nulls: Option<&[bool]>,
    sel: &Selection,
    mut f: impl FnMut(usize, Option<&'x T>),
) {
    match (sel, nulls) {
        (Selection::Range(r), None) => {
            for (k, x) in xs[r.clone()].iter().enumerate() {
                f(k, Some(x));
            }
        }
        (Selection::Range(r), Some(m)) => {
            for (k, (x, &null)) in xs[r.clone()].iter().zip(&m[r.clone()]).enumerate() {
                f(k, (!null).then_some(x));
            }
        }
        (Selection::Positions(p), None) => {
            for (k, &i) in p.iter().enumerate() {
                f(k, Some(&xs[i]));
            }
        }
        (Selection::Positions(p), Some(m)) => {
            for (k, &i) in p.iter().enumerate() {
                f(k, (!m[i]).then_some(&xs[i]));
            }
        }
    }
}

/// Typed values and null mask of a column, for kernels that dispatch on
/// the type once per morsel.
enum Typed<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a Arc<StrDict>, &'a [u32]),
}

fn typed(col: &ColumnData) -> (Typed<'_>, Option<&[bool]>) {
    match col {
        ColumnData::Int64 { values, nulls } => (Typed::Int(values), nulls.as_deref()),
        ColumnData::Float64 { values, nulls } => (Typed::Float(values), nulls.as_deref()),
        ColumnData::Str { dict, codes, nulls } => (Typed::Str(dict, codes), nulls.as_deref()),
    }
}

/// One key column's value → id table. Ints and text codes are
/// direct-addressed while their domain is dense; float bit patterns hash.
enum KeyTable {
    Int(IntIds),
    Bits(IdTable<i64>),
    Text(TextIds),
}

struct KeyColumn {
    table: KeyTable,
    null_id: Option<u32>,
    /// Keys expected in all, sizing a hashed table.
    capacity: usize,
}

impl KeyColumn {
    fn new(ty: DataType, capacity: usize) -> KeyColumn {
        let table = match ty {
            DataType::Int64 => KeyTable::Int(IntIds::new()),
            DataType::Float64 => KeyTable::Bits(IdTable::with_capacity(capacity)),
            DataType::Str => KeyTable::Text(TextIds::new()),
        };
        KeyColumn {
            table,
            null_id: None,
            capacity,
        }
    }

    fn len(&self) -> usize {
        match &self.table {
            KeyTable::Int(t) => t.len(),
            KeyTable::Bits(t) => t.len(),
            KeyTable::Text(t) => t.ids.len(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match &self.table {
            KeyTable::Int(t) => t.heap_bytes(),
            KeyTable::Bits(t) => t.heap_bytes(),
            KeyTable::Text(t) => t.heap_bytes(),
        }
    }

    /// Write this column's id for every selected row into `ids`.
    fn assign(&mut self, col: &ColumnData, sel: &Selection, ids: &mut [u32]) -> Result<()> {
        let (values, nulls) = typed(col);
        let null_id = &mut self.null_id;
        match (&mut self.table, values) {
            (KeyTable::Int(t), Typed::Int(xs)) => {
                t.assign(xs, nulls, sel, ids, null_id, self.capacity)
            }
            (KeyTable::Bits(t), Typed::Float(xs)) => for_rows(xs, nulls, sel, |k, x| {
                ids[k] = match x {
                    Some(x) => t.intern(x.to_bits() as i64),
                    None => *null_id.get_or_insert_with(|| t.alloc_id()),
                }
            }),
            (KeyTable::Text(t), Typed::Str(dict, codes)) => {
                t.assign(dict, codes, nulls, sel, ids, null_id, self.capacity)?
            }
            _ => return Err(Error::exec("group key column changed type between morsels")),
        }
        Ok(())
    }
}

/// Maps rows of the key columns to dense group ids. The tables persist
/// across [`Grouper::assign`] calls, so the merge step feeds it one
/// partial after another and keeps one id space.
struct Grouper {
    columns: Vec<KeyColumn>,
    /// `pairs[c - 1]` interns `(id over columns 0..c, id of column c)`.
    pairs: Vec<IdTable<i64>>,
}

impl Grouper {
    /// `capacity` sizes the table that holds the final ids (groups expected
    /// before it first grows); the others start small.
    fn new(key_cols: &[&ColumnData], capacity: usize) -> Grouper {
        let last = key_cols.len().saturating_sub(1);
        let columns = key_cols
            .iter()
            .map(|col| KeyColumn::new(col.data_type(), if last == 0 { capacity } else { 0 }))
            .collect();
        let pairs = (1..key_cols.len())
            .map(|c| IdTable::with_capacity(if c == last { capacity } else { 0 }))
            .collect();
        Grouper { columns, pairs }
    }

    /// Groups so far; with no key columns, always the one group.
    fn n_groups(&self) -> usize {
        match (self.pairs.last(), self.columns.first()) {
            (Some(t), _) => t.len(),
            (None, Some(c)) => c.len(),
            (None, None) => 1,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(KeyColumn::heap_bytes)
            .sum::<usize>()
            + self.pairs.iter().map(IdTable::heap_bytes).sum::<usize>()
    }

    /// The group id of each of `n` rows, in row order: row `k` holds
    /// `col.index(sel.index(k))` of every key column `(col, sel)`.
    fn assign(&mut self, keys: &[Input], n: usize) -> Result<Vec<u32>> {
        // Ids must stay below the empty-slot marker; distinct keys never
        // outnumber rows.
        if self.n_groups().saturating_add(n) >= EMPTY as usize {
            return Err(Error::exec("GROUP BY input exceeds 2^32 rows per step"));
        }
        let mut ids = vec![0u32; n];
        let mut next = vec![0u32; if keys.len() > 1 { n } else { 0 }];
        for (c, (table, (col, sel))) in self.columns.iter_mut().zip(keys).enumerate() {
            if c == 0 {
                table.assign(col, sel, &mut ids)?;
                continue;
            }
            table.assign(col, sel, &mut next)?;
            let pair = &mut self.pairs[c - 1];
            for (id, &b) in ids.iter_mut().zip(&next) {
                *id = pair.intern(((u64::from(*id) << 32) | u64::from(b)) as i64);
            }
        }
        Ok(ids)
    }
}

/// The rows (`k`, counted within the step) that opened groups `from..`,
/// in group order. Ids are dense and handed out in row order, so each new
/// group's first row is where the running maximum steps up.
fn first_rows(ids: &[u32], from: usize) -> Vec<usize> {
    let mut next = from as u32;
    let mut rows = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        if id == next {
            rows.push(k);
            next += 1;
        }
    }
    rows
}

/// The group of each selected row, as the aggregate folds read it.
trait Groups: Copy {
    /// Group of the `k`-th selected row.
    fn of(self, k: usize) -> usize;
    /// Count each of the `n` selected rows in its group.
    fn count(self, counts: &mut [u64], n: usize);
}

/// One id per selected row.
impl Groups for &[u32] {
    #[inline(always)]
    fn of(self, k: usize) -> usize {
        self[k] as usize
    }

    fn count(self, counts: &mut [u64], _n: usize) {
        for &g in self {
            counts[g as usize] += 1;
        }
    }
}

/// No key columns: every row is group 0, and no id vector exists.
#[derive(Clone, Copy)]
struct OneGroup;

impl Groups for OneGroup {
    #[inline(always)]
    fn of(self, _k: usize) -> usize {
        0
    }

    fn count(self, counts: &mut [u64], n: usize) {
        counts[0] += n as u64;
    }
}

/// Per-group running state of one aggregate, one vector entry per group.
/// Mirrors [`Accumulator`](crate::agg::Accumulator) value for value: the
/// same additions in the same order, the same comparisons, the same NULL
/// and overflow rules.
#[derive(Debug)]
enum AggState {
    CountStar(Vec<u64>),
    Count(Vec<u64>),
    SumInt {
        sum: Vec<i128>,
        seen: Vec<bool>,
    },
    SumFloat {
        sum: Vec<f64>,
        seen: Vec<bool>,
    },
    Avg {
        sum: Vec<f64>,
        n: Vec<u64>,
    },
    /// Best value so far as a typed column; NULL until a value was seen.
    MinMax {
        min: bool,
        best: ColumnData,
    },
}

/// An all-NULL column of `n` rows.
fn null_column(ty: DataType, n: usize) -> ColumnData {
    let nulls = Some(vec![true; n]);
    match ty {
        DataType::Int64 => ColumnData::Int64 {
            values: vec![0; n],
            nulls,
        },
        DataType::Float64 => ColumnData::Float64 {
            values: vec![0.0; n],
            nulls,
        },
        DataType::Str => ColumnData::Str {
            dict: Arc::default(),
            codes: vec![0; n],
            nulls,
        },
    }
}

impl AggState {
    /// Zero state for `n` groups of `func` over an argument of type `arg`.
    fn new(func: AggFunc, arg: DataType, n: usize) -> AggState {
        match (func, arg) {
            (AggFunc::CountStar, _) => AggState::CountStar(vec![0; n]),
            (AggFunc::Count, _) => AggState::Count(vec![0; n]),
            (AggFunc::Sum, DataType::Float64) => AggState::SumFloat {
                sum: vec![0.0; n],
                seen: vec![false; n],
            },
            // A string argument fails at its first non-NULL value; until
            // then the sum is the untouched integer zero.
            (AggFunc::Sum, _) => AggState::SumInt {
                sum: vec![0; n],
                seen: vec![false; n],
            },
            (AggFunc::Avg, _) => AggState::Avg {
                sum: vec![0.0; n],
                n: vec![0; n],
            },
            (AggFunc::Min | AggFunc::Max, ty) => AggState::MinMax {
                min: func == AggFunc::Min,
                best: null_column(ty, n),
            },
        }
    }

    /// Extend to `n` groups, new groups at zero state.
    fn grow(&mut self, n: usize) {
        match self {
            AggState::CountStar(c) | AggState::Count(c) => c.resize(n, 0),
            AggState::SumInt { sum, seen } => {
                sum.resize(n, 0);
                seen.resize(n, false);
            }
            AggState::SumFloat { sum, seen } => {
                sum.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggState::Avg { sum, n: count } => {
                sum.resize(n, 0.0);
                count.resize(n, 0);
            }
            AggState::MinMax { best, .. } => best
                .append(null_column(best.data_type(), n - best.len()))
                .expect("same type"),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            AggState::CountStar(c) | AggState::Count(c) => c.len() * 8,
            AggState::SumInt { sum, .. } => sum.len() * 17,
            AggState::SumFloat { sum, .. } => sum.len() * 9,
            AggState::Avg { sum, .. } => sum.len() * 16,
            AggState::MinMax { best, .. } => owned_bytes(best),
        }
    }

    /// Fold `n` rows into their groups (`ids.of(k)` is the group of row
    /// `k`), in row order; row `k`'s argument is `arg`'s selected row `k`.
    /// `COUNT(*)` counts the rows whatever the argument; without an
    /// argument every other function sees only NULLs.
    fn update(
        &mut self,
        arg: Option<(&ColumnData, &Selection)>,
        n: usize,
        ids: impl Groups,
    ) -> Result<()> {
        if let AggState::CountStar(c) = self {
            ids.count(c, n);
            return Ok(());
        }
        let Some((arg, sel)) = arg else {
            return Ok(());
        };
        let (values, nulls) = typed(arg);
        match (self, values) {
            (AggState::Count(c), _) => match nulls {
                None => ids.count(c, sel.len()),
                Some(m) => for_rows(m, None, sel, |k, null| {
                    c[ids.of(k)] += u64::from(null == Some(&false));
                }),
            },
            (AggState::SumInt { sum, seen }, Typed::Int(xs)) => for_rows(xs, nulls, sel, |k, x| {
                if let Some(&x) = x {
                    let g = ids.of(k);
                    sum[g] += i128::from(x);
                    seen[g] = true;
                }
            }),
            (AggState::SumFloat { sum, seen }, Typed::Float(xs)) => {
                for_rows(xs, nulls, sel, |k, x| {
                    if let Some(&x) = x {
                        let g = ids.of(k);
                        sum[g] += x;
                        seen[g] = true;
                    }
                })
            }
            (AggState::Avg { sum, n }, Typed::Int(xs)) => for_rows(xs, nulls, sel, |k, x| {
                if let Some(&x) = x {
                    let g = ids.of(k);
                    sum[g] += x as f64;
                    n[g] += 1;
                }
            }),
            (AggState::Avg { sum, n }, Typed::Float(xs)) => for_rows(xs, nulls, sel, |k, x| {
                if let Some(&x) = x {
                    let g = ids.of(k);
                    sum[g] += x;
                    n[g] += 1;
                }
            }),
            (AggState::SumInt { .. }, Typed::Str(dict, xs)) => {
                first_value(dict, xs, nulls, sel, "sum")?
            }
            (AggState::Avg { .. }, Typed::Str(dict, xs)) => {
                first_value(dict, xs, nulls, sel, "avg")?
            }
            (AggState::MinMax { min, best }, values) => {
                // `sql_cmp` order: ints by value, floats by `total_cmp`,
                // text bytewise; a candidate replaces only a strictly
                // worse best.
                let by = if *min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let at = FoldAt { nulls, sel, ids };
                match (best, values) {
                    (ColumnData::Int64 { values, nulls }, Typed::Int(xs)) => {
                        fold_best(values, nulls, xs, at, |x, b| x.cmp(b) == by)
                    }
                    (ColumnData::Float64 { values, nulls }, Typed::Float(xs)) => {
                        fold_best(values, nulls, xs, at, |x, b| x.total_cmp(b) == by)
                    }
                    (ColumnData::Str { dict, codes, nulls }, Typed::Str(arg, xs)) => {
                        fold_best_text((dict, codes, nulls), (arg, xs), at, by)?
                    }
                    _ => return Err(Error::exec(TYPE_CHANGED)),
                }
            }
            _ => return Err(Error::exec(TYPE_CHANGED)),
        }
        Ok(())
    }

    /// Fold a partial's state into this one: group `j` of `other` lands in
    /// group `ids[j]` here.
    fn merge(&mut self, other: AggState, ids: &[u32]) -> Result<()> {
        match (self, other) {
            (AggState::CountStar(a), AggState::CountStar(b))
            | (AggState::Count(a), AggState::Count(b)) => {
                for (&g, b) in ids.iter().zip(b) {
                    a[g as usize] += b;
                }
            }
            (AggState::SumInt { sum, seen }, AggState::SumInt { sum: s2, seen: n2 }) => {
                for ((&g, b), s) in ids.iter().zip(s2).zip(n2) {
                    sum[g as usize] += b;
                    seen[g as usize] |= s;
                }
            }
            (AggState::SumFloat { sum, seen }, AggState::SumFloat { sum: s2, seen: n2 }) => {
                for ((&g, b), s) in ids.iter().zip(s2).zip(n2) {
                    sum[g as usize] += b;
                    seen[g as usize] |= s;
                }
            }
            (AggState::Avg { sum, n }, AggState::Avg { sum: s2, n: n2 }) => {
                for ((&g, b), c) in ids.iter().zip(s2).zip(n2) {
                    sum[g as usize] += b;
                    n[g as usize] += c;
                }
            }
            (a @ AggState::MinMax { .. }, AggState::MinMax { best, .. }) => a.update(
                Some((&best, &Selection::Range(0..best.len()))),
                ids.len(),
                ids,
            )?,
            _ => return Err(Error::exec("cannot merge mismatched aggregate states")),
        }
        Ok(())
    }

    /// The aggregate's result column, one row per group; NULL where the
    /// group saw no value.
    fn finish(self) -> Result<ColumnData> {
        Ok(match self {
            AggState::CountStar(c) | AggState::Count(c) => {
                ColumnData::from_i64(c.into_iter().map(|n| n as i64).collect())
            }
            AggState::SumInt { sum, seen } => ColumnData::Int64 {
                values: sum
                    .into_iter()
                    .map(|s| i64::try_from(s).map_err(|_| Error::exec("integer overflow in sum")))
                    .collect::<Result<_>>()?,
                nulls: null_mask(seen.into_iter().map(|s| !s)),
            },
            AggState::SumFloat { sum, seen } => ColumnData::Float64 {
                values: sum,
                nulls: null_mask(seen.into_iter().map(|s| !s)),
            },
            AggState::Avg { sum, n } => ColumnData::Float64 {
                values: sum
                    .into_iter()
                    .zip(&n)
                    .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                    .collect(),
                nulls: null_mask(n.iter().map(|&n| n == 0)),
            },
            AggState::MinMax { mut best, .. } => {
                let (ColumnData::Int64 { nulls, .. }
                | ColumnData::Float64 { nulls, .. }
                | ColumnData::Str { nulls, .. }) = &mut best;
                if nulls.as_ref().is_some_and(|m| !m.contains(&true)) {
                    *nulls = None;
                }
                best
            }
        })
    }
}

impl AggSpec {
    /// The type of this aggregate's result column — what the group
    /// kernel's finished state holds — when column `c` has type
    /// `col_type(c)`.
    pub fn result_type(&self, col_type: &impl Fn(usize) -> Option<DataType>) -> Result<DataType> {
        let arg = match &self.expr {
            None => DataType::Int64,
            Some(e) => e.result_type(col_type)?,
        };
        Ok(match (self.func, arg) {
            (AggFunc::CountStar | AggFunc::Count, _) => DataType::Int64,
            (AggFunc::Sum, DataType::Float64) | (AggFunc::Avg, _) => DataType::Float64,
            (AggFunc::Sum, _) => DataType::Int64,
            (AggFunc::Min | AggFunc::Max, ty) => ty,
        })
    }
}

/// A result column's null mask: `None` when no row is NULL.
fn null_mask(is_null: impl Iterator<Item = bool>) -> Option<Vec<bool>> {
    let mask: Vec<bool> = is_null.collect();
    mask.contains(&true).then_some(mask)
}

const TYPE_CHANGED: &str = "aggregate argument changed type between morsels";

/// Where a fold reads its rows: the argument's null mask, the selected
/// rows and their groups.
struct FoldAt<'a, G> {
    nulls: Option<&'a [bool]>,
    sel: &'a Selection<'a>,
    ids: G,
}

/// MIN/MAX fold: `best[g]` takes each non-NULL `x` of group `g` that is
/// the first seen or `better(x, best[g])`.
fn fold_best<T: Clone, G: Groups>(
    best: &mut [T],
    unseen: &mut Option<Vec<bool>>,
    xs: &[T],
    at: FoldAt<G>,
    better: impl Fn(&T, &T) -> bool,
) {
    let unseen = unseen.as_mut().expect("state columns carry a mask");
    for_rows(xs, at.nulls, at.sel, |k, x| {
        if let Some(x) = x {
            let g = at.ids.of(k);
            if unseen[g] || better(x, &best[g]) {
                best[g].clone_from(x);
                unseen[g] = false;
            }
        }
    })
}

/// MIN/MAX fold over text: entries compare as strings, `by` being the
/// order a better one has against the best so far. A state that has seen
/// nothing takes the argument's dictionary; on that dictionary the best
/// is the argument's code, and on any other each new best is interned.
fn fold_best_text<G: Groups>(
    (dict, best, unseen): (&mut Arc<StrDict>, &mut [u32], &mut Option<Vec<bool>>),
    (arg, xs): (&Arc<StrDict>, &[u32]),
    at: FoldAt<G>,
    by: Ordering,
) -> Result<()> {
    if dict.is_empty() {
        *dict = Arc::clone(arg);
    }
    if Arc::ptr_eq(dict, arg) {
        fold_best(best, unseen, xs, at, |&x, &b| {
            arg.get(x).cmp(arg.get(b)) == by
        });
        return Ok(());
    }
    let unseen = unseen.as_mut().expect("state columns carry a mask");
    let mut done = Ok(());
    for_rows(xs, at.nulls, at.sel, |k, x| {
        if let Some(&x) = x {
            let (g, s) = (at.ids.of(k), arg.get(x));
            if unseen[g] || s.cmp(dict.get(best[g])) == by {
                match Arc::make_mut(dict).intern(s) {
                    Ok(code) => best[g] = code,
                    Err(e) => done = Err(e),
                }
                unseen[g] = false;
            }
        }
    });
    done
}

/// SUM/AVG over text: fail on the first non-NULL value, like the
/// row-at-a-time [`Accumulator`](crate::agg::Accumulator) does.
fn first_value(
    dict: &StrDict,
    xs: &[u32],
    nulls: Option<&[bool]>,
    sel: &Selection,
    func: &str,
) -> Result<()> {
    let mut first = None;
    for_rows(xs, nulls, sel, |_, x| {
        if first.is_none() {
            first = x.copied();
        }
    });
    match first {
        None => Ok(()),
        Some(c) => Err(Error::exec(format!(
            "{func} over non-numeric value {}",
            dict.get(c)
        ))),
    }
}

/// Bytes a column of group state owns: a text column's dictionary is
/// shared with the column it was gathered from, so only its codes count.
fn owned_bytes(col: &ColumnData) -> usize {
    match col {
        ColumnData::Str { codes, nulls, .. } => {
            codes.len() * 4 + nulls.as_ref().map_or(0, Vec::len)
        }
        other => other.approx_bytes(),
    }
}

/// Grouped partial-aggregate state of one morsel (or of several, merged):
/// the distinct group keys as typed columns in first-appearance order,
/// and one typed state vector per aggregate.
#[derive(Debug)]
pub struct GroupPartial {
    n_groups: usize,
    /// One column per GROUP BY column, `n_groups` rows each.
    keys: Vec<ColumnData>,
    /// One state per aggregate spec, `n_groups` entries each.
    states: Vec<AggState>,
}

impl GroupPartial {
    fn heap_bytes(&self) -> usize {
        self.keys.iter().map(owned_bytes).sum::<usize>()
            + self.states.iter().map(AggState::heap_bytes).sum::<usize>()
    }

    /// Result columns, `group key columns ++ aggregate results`, one row
    /// per group.
    fn finish(self) -> Result<Vec<ColumnData>> {
        let mut columns = self.keys;
        for s in self.states {
            columns.push(s.finish()?);
        }
        Ok(columns)
    }
}

/// A [`GroupPartial`] being folded: the id tables, the key values of each
/// group in first-appearance order, and one typed state per aggregate.
/// Rows arrive in steps ([`GroupFold::step`]) and fold in arrival order,
/// so folding rows over several steps gives the bits of one step over
/// all of them: a join folds a probe morsel's pairs in bounded slices
/// this way.
pub(crate) struct GroupFold {
    grouper: Grouper,
    keys: Vec<ColumnData>,
    funcs: Vec<AggFunc>,
    /// Made by the first step, which knows the argument types.
    states: Vec<AggState>,
    /// The largest group-id vector a step built.
    id_bytes: usize,
}

/// One column read at selected rows: row `k` is `col`'s row `sel.index(k)`.
pub(crate) type Input<'c, 's> = (&'c ColumnData, Selection<'s>);

impl GroupFold {
    /// A fold grouping by columns of the types of `key_cols`, computing
    /// `specs`.
    pub(crate) fn new(key_cols: &[&ColumnData], specs: &[AggSpec]) -> GroupFold {
        GroupFold {
            grouper: Grouper::new(key_cols, 0),
            keys: key_cols
                .iter()
                .map(|c| ColumnData::empty(c.data_type()))
                .collect(),
            funcs: specs.iter().map(|s| s.func).collect(),
            states: Vec::new(),
            id_bytes: 0,
        }
    }

    /// Fold `n` more rows: row `k`'s group key is row `k` of each of
    /// `keys` (one per key column), its argument of aggregate `a` row `k`
    /// of `args[a]` (`None`: no argument).
    pub(crate) fn step(
        &mut self,
        keys: &[Input],
        args: &[Option<Input<'_, '_>>],
        n: usize,
    ) -> Result<()> {
        if self.states.is_empty() {
            self.states = self
                .funcs
                .iter()
                .zip(args)
                .map(|(&f, a)| {
                    AggState::new(
                        f,
                        a.as_ref().map_or(DataType::Int64, |a| a.0.data_type()),
                        0,
                    )
                })
                .collect();
        }
        let before = self.grouper.n_groups();
        // Zero key columns: every row is group 0, so there are no ids to
        // build.
        let ids = if keys.is_empty() {
            None
        } else {
            Some(self.grouper.assign(keys, n)?)
        };
        let total = self.grouper.n_groups();
        if let Some(ids) = &ids {
            self.id_bytes = self.id_bytes.max(ids.len() * 4);
            if total > before {
                let firsts = first_rows(ids, before);
                for (dst, (col, sel)) in self.keys.iter_mut().zip(keys) {
                    let rows: Vec<usize> = firsts.iter().map(|&k| sel.index(k)).collect();
                    dst.append(col.take(&rows))?;
                }
            }
        }
        for (state, arg) in self.states.iter_mut().zip(args) {
            state.grow(total);
            let arg = arg.as_ref().map(|(col, sel)| (*col, sel));
            match &ids {
                Some(ids) => state.update(arg, n, ids.as_slice())?,
                None => state.update(arg, n, OneGroup)?,
            }
        }
        Ok(())
    }

    /// The folded partial. Group state grows with the data (one entry per
    /// distinct key seen): it is metered against the ambient budget here,
    /// once per partial. There must have been at least one step.
    pub(crate) fn finish(self) -> Result<GroupPartial> {
        if self.states.len() != self.funcs.len() {
            return Err(Error::internal("group fold finished before its first step"));
        }
        let partial = GroupPartial {
            n_groups: self.grouper.n_groups(),
            keys: self.keys,
            states: self.states,
        };
        charge_current(partial.heap_bytes() + self.grouper.heap_bytes() + self.id_bytes)?;
        Ok(partial)
    }
}

/// Group and aggregate the row range `[lo, hi)`: filter with `conj`, map
/// the qualifying rows' keys to group ids, fold every aggregate over its
/// typed argument column. Groups come back in first-appearance order;
/// with no `group_cols` there is exactly one group, even when no row
/// qualifies (or the range is empty).
pub fn group_partial_range<C: Cols + ?Sized>(
    cols: &C,
    lo: usize,
    hi: usize,
    conj: &Conjunction,
    group_cols: &[usize],
    specs: &[AggSpec],
) -> Result<GroupPartial> {
    let key_cols: Vec<&ColumnData> = group_cols
        .iter()
        .map(|&g| column(cols, g))
        .collect::<Result<_>>()?;
    let positions = if conj.is_always_true() {
        None
    } else {
        Some(filter_positions_range(cols, lo, hi, conj)?)
    };
    let sel = match &positions {
        None => Selection::Range(lo..hi),
        Some(p) => Selection::Positions(p),
    };
    // Any argument but a plain column: evaluated once per morsel, dense
    // over the selected rows.
    let evaluated = specs
        .iter()
        .map(|spec| match &spec.expr {
            None | Some(Expr::Col(_)) => Ok(None),
            Some(expr) => match &sel {
                Selection::Range(r) => expr.eval_column(cols, r.clone()),
                Selection::Positions(p) => expr.eval_column(cols, p.iter().copied()),
            }
            .map(Some),
        })
        .collect::<Result<Vec<_>>>()?;
    let args = specs
        .iter()
        .zip(&evaluated)
        .map(|(spec, evaluated)| {
            Ok(match (&spec.expr, evaluated) {
                (_, Some(col)) => Some((col, Selection::Range(0..col.len()))),
                (Some(Expr::Col(c)), None) => Some((column(cols, *c)?, sel.clone())),
                _ => None,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let keys: Vec<Input> = key_cols.iter().map(|&c| (c, sel.clone())).collect();
    let mut fold = GroupFold::new(&key_cols, specs);
    fold.step(&keys, &args, sel.len())?;
    fold.finish()
}

/// Column `c` of `cols`, or the error naming it.
pub(crate) fn column<C: Cols + ?Sized>(cols: &C, c: usize) -> Result<&ColumnData> {
    cols.get_col(c)
        .ok_or_else(|| Error::exec(format!("column {c} not materialised")))
}

/// Merge per-morsel partials (in morsel index order) and finish them into
/// result columns, `group key columns ++ aggregate results`, one row per
/// group, ordered by first appearance (no columns at all when there is no
/// partial to take their types from, so
/// [`parallel_group_columns`](crate::morsel::parallel_group_columns)
/// always passes at least one). Each partial's key columns go through the same
/// group-id mapping as input rows do; since partials arrive in morsel order and
/// each lists its groups in first-appearance order, the merged ids are in
/// global first-appearance order and every group's state is folded in
/// morsel order — the output is a function of the morsel boundaries only.
/// Timed under [`Phase::GroupMerge`].
pub fn merge_group_partials(mut parts: Vec<GroupPartial>) -> Result<Vec<ColumnData>> {
    let _p = profile::phase(Phase::GroupMerge);
    if parts.len() <= 1 {
        return parts.pop().map_or(Ok(Vec::new()), GroupPartial::finish);
    }
    // Key columns stay put while the tables borrow their strings; the
    // states are consumed as they merge.
    let upper: usize = parts.iter().map(|p| p.n_groups).sum();
    let mut part_keys = Vec::with_capacity(parts.len());
    let mut part_states = Vec::with_capacity(parts.len());
    for p in parts {
        part_keys.push((p.n_groups, p.keys));
        part_states.push(p.states);
    }
    let mut part_states = part_states.into_iter();
    // The first partial's groups are distinct and take ids `0..n` as they
    // are, so its states seed the merge.
    let mut states = part_states.next().expect("two or more partials");

    let mut grouper = Grouper::new(&refs(&part_keys[0].1), upper);
    // Hashed tables start at their final size; a direct-addressed one
    // grows with the key span, and each growth is charged as it happens.
    let mut table_bytes = grouper.heap_bytes();
    charge_current(table_bytes)?;
    let group_bytes = part_keys[0].1.len() * 16 + states.len() * 16;
    let mut cancel = CancelCheck::new();
    // Per partial, its rows that opened a new group, in group order.
    let mut new_rows: Vec<Vec<usize>> = Vec::with_capacity(part_keys.len());
    for (m, (n, keys)) in part_keys.iter().enumerate() {
        cancel.tick(*n)?;
        let before = grouper.n_groups();
        let inputs: Vec<Input> = keys.iter().map(|k| (k, Selection::Range(0..*n))).collect();
        let ids = grouper.assign(&inputs, *n)?;
        let total = grouper.n_groups();
        new_rows.push(first_rows(&ids, before));
        let grown = grouper.heap_bytes().saturating_sub(table_bytes);
        charge_current(grown)?;
        table_bytes += grown;
        if m == 0 {
            continue;
        }
        charge_current((total - before) * group_bytes)?;
        let partial = part_states.next().expect("one state list per partial");
        for (state, other) in states.iter_mut().zip(partial) {
            state.grow(total);
            state.merge(other, &ids)?;
        }
    }
    let n_groups = grouper.n_groups();
    drop(grouper);

    let mut keys: Vec<ColumnData> = part_keys[0]
        .1
        .iter()
        .map(|k| ColumnData::empty(k.data_type()))
        .collect();
    for ((_, pk), rows) in part_keys.iter().zip(&new_rows) {
        for (dst, src) in keys.iter_mut().zip(pk) {
            dst.append(src.take(rows))?;
        }
    }
    GroupPartial {
        n_groups,
        keys,
        states,
    }
    .finish()
}

fn refs(cols: &[ColumnData]) -> Vec<&ColumnData> {
    cols.iter().collect()
}

/// The retired row-at-a-time GROUP BY, kept as the reference the typed
/// kernel is tested against: per morsel, every predicate matched per row
/// on a boxed `Value`, one `GroupKey(Vec<Value>)` per qualifying row into a
/// `HashMap`, every aggregate fed through
/// `Accumulator::update(&Value)` from `Expr::eval`; partials merged in
/// morsel order with `Accumulator::merge`; groups in first-appearance
/// order. Without group columns it answers as SQL does: exactly one row,
/// even over no rows.
#[cfg(test)]
pub(crate) fn reference_group_aggregate<C: Cols + ?Sized>(
    cols: &C,
    n_rows: usize,
    conj: &Conjunction,
    group_cols: &[usize],
    specs: &[AggSpec],
    morsel_rows: usize,
) -> Result<Vec<Vec<nodb_types::Value>>> {
    use crate::agg::Accumulator;
    use crate::columnar::GroupKey;
    use nodb_types::Value;
    use std::collections::HashMap;

    let mut slots: HashMap<GroupKey, usize> = HashMap::new();
    let mut merged: Vec<(GroupKey, Vec<Accumulator>)> = Vec::new();
    let mut lo = 0;
    while lo < n_rows {
        let hi = lo.saturating_add(morsel_rows.max(1)).min(n_rows);
        let mut local: HashMap<GroupKey, usize> = HashMap::new();
        let mut partial: Vec<(GroupKey, Vec<Accumulator>)> = Vec::new();
        // The filter one row at a time, as each predicate defines it.
        let pass = |i| {
            conj.preds
                .iter()
                .all(|p| p.matches(&cols.get_col(p.col).expect("filter column").get(i)))
        };
        for i in (lo..hi).filter(|&i| pass(i)) {
            let key = GroupKey(
                group_cols
                    .iter()
                    .map(|&g| cols.get_col(g).expect("group column").get(i))
                    .collect(),
            );
            let slot = *local.entry(key.clone()).or_insert_with(|| {
                partial.push((
                    key,
                    specs.iter().map(|s| Accumulator::new(s.func)).collect(),
                ));
                partial.len() - 1
            });
            for (acc, spec) in partial[slot].1.iter_mut().zip(specs) {
                match &spec.expr {
                    None => acc.update(&Value::Null)?,
                    Some(e) => acc.update(&e.eval(cols, i)?)?,
                }
            }
        }
        for (key, accs) in partial {
            match slots.get(&key) {
                Some(&s) => {
                    for (m, a) in merged[s].1.iter_mut().zip(accs) {
                        m.merge(a)?;
                    }
                }
                None => {
                    slots.insert(key.clone(), merged.len());
                    merged.push((key, accs));
                }
            }
        }
        lo = hi;
    }
    if group_cols.is_empty() && merged.is_empty() {
        let accs = specs.iter().map(|s| Accumulator::new(s.func)).collect();
        merged.push((GroupKey(Vec::new()), accs));
    }
    let mut rows = Vec::with_capacity(merged.len());
    for (key, accs) in merged {
        let mut row = key.0;
        for a in &accs {
            row.push(a.finish()?);
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithOp;
    use crate::morsel::{parallel_group_aggregate, parallel_group_columns};
    use nodb_types::Value;
    use std::collections::BTreeMap;

    /// Cells with floats as bit patterns, so NaN and `-0.0` compare by
    /// identity: "byte-identical" is what the kernel promises.
    fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    /// Kernel and reference agree: the result columns hold the reference's
    /// rows bit for bit in the same order (key columns keeping their input
    /// type), or the kernel fails with the same error.
    fn assert_matches_reference(
        cols: &BTreeMap<usize, ColumnData>,
        n: usize,
        conj: &Conjunction,
        group_cols: &[usize],
        specs: &[AggSpec],
    ) {
        for morsel_rows in [1, 7, 32 * 1024] {
            let want = reference_group_aggregate(cols, n, conj, group_cols, specs, morsel_rows);
            for threads in [1, 2, 5] {
                let got =
                    parallel_group_columns(cols, n, conj, group_cols, specs, threads, morsel_rows);
                let ctx =
                    format!("threads={threads} morsel_rows={morsel_rows} keys={group_cols:?}");
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        let n_groups = g.first().map_or(0, ColumnData::len);
                        if group_cols.is_empty() {
                            assert_eq!(n_groups, 1, "{ctx}: zero keys are one group");
                        }
                        let rows: Vec<Vec<Value>> = (0..n_groups)
                            .map(|r| g.iter().map(|c| c.get(r)).collect())
                            .collect();
                        assert_eq!(bits(&rows), bits(w), "{ctx}");
                        for (key, col) in group_cols.iter().zip(g) {
                            assert_eq!(col.data_type(), cols[key].data_type(), "{ctx}");
                        }
                        // Aggregate columns have the type the plan advertises.
                        let col_type = |c: usize| cols.get(&c).map(ColumnData::data_type);
                        for (spec, col) in specs.iter().zip(&g[group_cols.len()..]) {
                            let want = spec.result_type(&col_type).unwrap();
                            assert_eq!(col.data_type(), want, "{ctx}: {spec:?}");
                        }
                    }
                    (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
                    _ => panic!("{ctx}: kernel {got:?} vs reference {want:?}"),
                }
            }
        }
    }

    fn mul(l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op: ArithOp::Mul,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn id_table_assigns_dense_ids_in_first_insertion_order() {
        let mut t: IdTable<i64> = IdTable::with_capacity(0);
        let keys = [7i64, -3, 7, i64::MIN, i64::MAX, -3, 0];
        let ids: Vec<u32> = keys.iter().map(|&k| t.intern(k)).collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 3, 1, 4]);
        // Growth keeps every id.
        for k in 100..5000i64 {
            t.intern(k);
        }
        assert_eq!(t.get(7), Some(0));
        assert_eq!(t.get(i64::MIN), Some(2));
        assert_eq!(t.get(4999), Some(4904));
        assert_eq!(t.get(5000), None);
    }

    #[test]
    fn text_keys_group_by_text_whatever_dictionary_they_come_from() {
        let text = |cells: &[Option<&str>]| {
            let cells = cells.iter().map(|c| c.map_or(Value::Null, Value::from));
            ColumnData::from_values(DataType::Str, cells).unwrap()
        };
        let a = text(&[Some("x"), Some("y"), None, Some("x")]);
        // Another dictionary: "y" and "x" in another order, "z" new to
        // the first one, and an entry no selected row names.
        let b = text(&[Some("unused"), Some("y"), Some("z"), None, Some("x")]);
        let mut column = KeyColumn::new(DataType::Str, 0);
        let mut ids = vec![0; 4];
        // Only NULLs first: their dictionary is empty and keys nothing.
        let nulls = text(&[None, None]);
        column
            .assign(&nulls, &Selection::Range(0..2), &mut ids)
            .unwrap();
        assert_eq!(ids[..2], [0, 0]);
        column
            .assign(&a, &Selection::Range(0..4), &mut ids)
            .unwrap();
        assert_eq!(ids, [1, 2, 0, 1]);
        column
            .assign(&b, &Selection::Range(1..5), &mut ids)
            .unwrap();
        assert_eq!(ids, [2, 3, 0, 1]);
        column
            .assign(&a.take(&[1, 1]), &Selection::Positions(&[0]), &mut ids)
            .unwrap();
        assert_eq!(ids[0], 2);
        let KeyTable::Text(t) = &column.table else {
            panic!("text keys take the text table");
        };
        assert_eq!(t.extra.entries().collect::<Vec<_>>(), ["z"]);
        assert_eq!(column.len(), 4);
    }

    #[test]
    fn int_ids_widen_and_fall_back_keeping_ids() {
        // Batch after batch, as a grouper feeds them: NULLs are `None`.
        fn assign(t: &mut IntIds, null_id: &mut Option<u32>, keys: &[Option<i64>]) -> Vec<u32> {
            let xs: Vec<i64> = keys.iter().map(|k| k.unwrap_or(0)).collect();
            let nulls: Vec<bool> = keys.iter().map(Option::is_none).collect();
            let mut ids = vec![0; keys.len()];
            let sel = Selection::Range(0..keys.len());
            t.assign(&xs, Some(&nulls), &sel, &mut ids, null_id, 0);
            ids
        }
        let dense = |t: &IntIds| matches!(t, IntIds::Dense { .. });
        let (mut t, mut null) = (IntIds::new(), None);
        let got = assign(
            &mut t,
            &mut null,
            &[Some(15), Some(10), None, Some(20), Some(15)],
        );
        assert_eq!(got, [0, 1, 2, 3, 0]);
        assert!(dense(&t));
        // A range the budget still covers widens the array, ids kept.
        let got = assign(
            &mut t,
            &mut null,
            &[Some(0), Some(15), None, Some(30), Some(10)],
        );
        assert_eq!(got, [4, 0, 2, 5, 1]);
        assert!(dense(&t));
        assert_eq!(t.heap_bytes(), 31 * 4);
        // A key far outside converts to the hashed table, ids kept.
        let got = assign(&mut t, &mut null, &[Some(1 << 40), Some(30), None, Some(0)]);
        assert_eq!(got, [6, 5, 2, 4]);
        assert!(!dense(&t));
        assert_eq!(t.len(), 7);

        // The span arithmetic holds at both ends of the domain.
        let (mut t, mut null) = (IntIds::new(), None);
        let got = assign(&mut t, &mut null, &[Some(i64::MAX), Some(i64::MAX - 1)]);
        assert_eq!(got, [0, 1]);
        assert!(dense(&t));
        let (mut low, mut low_null) = (IntIds::new(), None);
        let got = assign(
            &mut low,
            &mut low_null,
            &[Some(i64::MIN + 3), Some(i64::MIN)],
        );
        assert_eq!(got, [0, 1]);
        assert!(dense(&low));
        // Together they span the whole domain, one more than a u64 holds.
        let got = assign(&mut t, &mut null, &[Some(i64::MIN), Some(i64::MAX)]);
        assert_eq!(got, [2, 0]);
        assert!(!dense(&t));
    }

    #[test]
    fn dense_keys_widen_and_fall_back_inside_one_grouper() {
        // Morsel after morsel through one key column: dense, widened,
        // then converted to the hashed table by a far key, with the ids
        // of earlier keys intact.
        let batch = |keys: &[i64]| ColumnData::from_i64(keys.to_vec());
        let (a, b, c) = (
            batch(&[3, 1, 3, 2]),
            batch(&[0, 9, 1]),
            batch(&[1 << 50, 2, 0]),
        );
        let mut column = KeyColumn::new(DataType::Int64, 0);
        let mut ids = vec![0; 4];
        for (col, want) in [(&a, &[0, 1, 0, 2][..]), (&b, &[3, 4, 1]), (&c, &[5, 2, 3])] {
            column
                .assign(col, &Selection::Range(0..col.len()), &mut ids)
                .unwrap();
            assert_eq!(&ids[..col.len()], want);
        }
        assert!(matches!(column.table, KeyTable::Int(IntIds::Hashed(_))));

        // The same walk through the kernel and its merge, against the
        // row-at-a-time reference, NULLs and both domain ends included.
        let mut keys: Vec<Value> = (0..20).map(Value::Int).collect();
        keys.extend((100..120).rev().map(Value::Int));
        keys.extend([
            Value::Int(1 << 40),
            Value::Null,
            Value::Int(5),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Null,
            Value::Int(101),
        ]);
        let n = keys.len();
        let mut cols = BTreeMap::new();
        cols.insert(0, ColumnData::from_values(DataType::Int64, keys).unwrap());
        cols.insert(1, ColumnData::from_i64((0..n as i64).collect()));
        let specs = [AggSpec::on_col(AggFunc::Sum, 1), AggSpec::count_star()];
        assert_matches_reference(&cols, n, &Conjunction::always(), &[0], &specs);
        assert_matches_reference(&cols, n, &Conjunction::always(), &[1, 0], &specs);
    }

    #[test]
    fn groups_in_first_appearance_order_with_null_group() {
        let mut cols = BTreeMap::new();
        cols.insert(
            0,
            ColumnData::from_values(
                DataType::Int64,
                vec![
                    Value::Int(2),
                    Value::Null,
                    Value::Int(1),
                    Value::Null,
                    Value::Int(2),
                ],
            )
            .unwrap(),
        );
        cols.insert(1, ColumnData::from_i64(vec![10, 20, 30, 40, 50]));
        let specs = [AggSpec::on_col(AggFunc::Sum, 1), AggSpec::count_star()];
        let rows =
            parallel_group_aggregate(&cols, 5, &Conjunction::always(), &[0], &specs, 1, 2, 0)
                .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(2), Value::Int(60), Value::Int(2)],
                vec![Value::Null, Value::Int(60), Value::Int(2)],
                vec![Value::Int(1), Value::Int(30), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn sum_overflow_is_the_same_typed_error() {
        let mut cols = BTreeMap::new();
        cols.insert(0, ColumnData::from_i64(vec![1, 1, 2]));
        cols.insert(1, ColumnData::from_i64(vec![i64::MAX, i64::MAX, 5]));
        let specs = [AggSpec::on_col(AggFunc::Sum, 1)];
        let err = parallel_group_aggregate(&cols, 3, &Conjunction::always(), &[0], &specs, 2, 1, 0)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::exec("integer overflow in sum").to_string()
        );
        assert_matches_reference(&cols, 3, &Conjunction::always(), &[0], &specs);
    }

    #[test]
    fn text_arguments_min_max_and_reject_sum() {
        let mut cols = BTreeMap::new();
        cols.insert(0, ColumnData::from_i64(vec![1, 2, 1, 2, 1]));
        cols.insert(
            1,
            ColumnData::from_values(
                DataType::Str,
                ["pear", "", "apple", "fig", "é"]
                    .into_iter()
                    .map(|s| Value::Str(s.to_owned())),
            )
            .unwrap(),
        );
        let always = Conjunction::always();
        let specs = [
            AggSpec::on_col(AggFunc::Min, 1),
            AggSpec::on_col(AggFunc::Max, 1),
        ];
        let rows = parallel_group_aggregate(&cols, 5, &always, &[0], &specs, 1, 2, 0).unwrap();
        assert_eq!(
            rows[0],
            vec![
                Value::Int(1),
                Value::Str("apple".into()),
                Value::Str("é".into())
            ]
        );
        assert_matches_reference(&cols, 5, &always, &[0], &specs);
        for func in [AggFunc::Sum, AggFunc::Avg] {
            assert_matches_reference(&cols, 5, &always, &[0], &[AggSpec::on_col(func, 1)]);
        }
    }

    #[test]
    fn missing_columns_are_errors() {
        let mut cols = BTreeMap::new();
        cols.insert(0, ColumnData::from_i64(vec![1, 2]));
        let always = Conjunction::always();
        assert!(group_partial_range(&cols, 0, 2, &always, &[9], &[]).is_err());
        let specs = [AggSpec::on_col(AggFunc::Sum, 9)];
        assert!(group_partial_range(&cols, 0, 2, &always, &[0], &specs).is_err());
    }

    mod properties {
        use super::*;
        use nodb_types::{CmpOp, ColPred};
        use proptest::prelude::*;

        const FLOAT_KEYS: [f64; 7] = [
            0.0,
            -0.0,
            f64::NAN,
            1.5,
            -1.5,
            f64::INFINITY,
            // A second NaN bit pattern: its own group, as `total_cmp` says.
            f64::from_bits(0x7ff8_0000_0000_0001),
        ];
        const STR_KEYS: [&str; 8] = ["", "a", "ab", "abc", "é", "日本", "abcdefgh", "abcdefghi"];
        const INT_EXTREMES: [i64; 5] = [i64::MIN, i64::MAX, -1, 0, 1];

        /// A key column of the given kind from per-row seeds; kinds 5..10
        /// are the nullable twins of 0..5.
        fn key_column(kind: u8, seeds: &[u64]) -> ColumnData {
            let nullable = kind >= 5;
            let value = |s: u64| -> Value {
                if nullable && s.is_multiple_of(5) {
                    return Value::Null;
                }
                let r = (s >> 8) as usize;
                match kind % 5 {
                    0 => Value::Int((r % 5) as i64),
                    1 => Value::Int((s as i64).wrapping_mul(0x5DEE_CE66D) >> (r % 60)),
                    2 => Value::Int(INT_EXTREMES[r % INT_EXTREMES.len()]),
                    3 => Value::Float(FLOAT_KEYS[r % FLOAT_KEYS.len()]),
                    _ => Value::Str(STR_KEYS[r % STR_KEYS.len()].to_owned()),
                }
            };
            let ty = match kind % 5 {
                0..=2 => DataType::Int64,
                3 => DataType::Float64,
                _ => DataType::Str,
            };
            ColumnData::from_values(ty, seeds.iter().map(|&s| value(s))).unwrap()
        }

        /// Key columns of `kinds` plus every aggregate over int, float,
        /// text and arithmetic arguments, built from per-row seeds, with
        /// no filter (`filter` 0), a partial one (1), one no row passes
        /// (2), or one on a nullable int, float or text column or all of
        /// them (3..7): kernel and reference must agree on all of it.
        fn check_against_reference(seeds: &[u64], kinds: &[u8], filter: u8, big: bool) {
            let n = seeds.len();
            let mut cols = BTreeMap::new();
            for (c, &kind) in kinds.iter().enumerate() {
                let mixed: Vec<u64> = seeds.iter().map(|s| s.rotate_left(13 * c as u32)).collect();
                cols.insert(c, key_column(kind, &mixed));
            }
            // Arguments: nullable ints (sometimes large enough that a
            // group's sum overflows), inexact floats with NULLs, text.
            let ints = seeds.iter().map(|&s| match s % 7 {
                0 => Value::Null,
                1 if big => Value::Int(i64::MAX - (s % 3) as i64),
                _ => Value::Int((s % 2001) as i64 - 1000),
            });
            cols.insert(10, ColumnData::from_values(DataType::Int64, ints).unwrap());
            let floats = seeds.iter().map(|&s| match s % 11 {
                0 => Value::Null,
                1 => Value::Float(-0.0),
                2 => Value::Float(0.0),
                // Rare, so most sums stay finite: NaN is the largest
                // value under `total_cmp`.
                _ if s % 61 == 3 => Value::Float(f64::NAN),
                _ => Value::Float((s % 1000) as f64 / 7.0 - 50.0),
            });
            cols.insert(
                11,
                ColumnData::from_values(DataType::Float64, floats).unwrap(),
            );
            let texts = seeds.iter().map(|&s| match s % 9 {
                0 => Value::Null,
                _ => Value::Str(STR_KEYS[(s >> 20) as usize % STR_KEYS.len()].to_owned()),
            });
            cols.insert(12, ColumnData::from_values(DataType::Str, texts).unwrap());
            let small = seeds.iter().map(|s| (s % 100) as i64).collect();
            cols.insert(13, ColumnData::from_i64(small));

            let mut specs = vec![AggSpec::count_star()];
            for func in [
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
                AggFunc::Count,
            ] {
                specs.push(AggSpec::on_col(func, 10));
                specs.push(AggSpec::on_col(func, 11));
            }
            for func in [AggFunc::Min, AggFunc::Max, AggFunc::Count] {
                specs.push(AggSpec::on_col(func, 12));
            }
            // Int→Float promotion and plain int arithmetic.
            let arith = [
                (AggFunc::Sum, Expr::Col(11)),
                (AggFunc::Avg, Expr::Lit(Value::Int(3))),
                (AggFunc::Max, Expr::Lit(Value::Null)),
            ];
            for (func, right) in arith {
                let expr = Some(mul(Expr::Col(13), right));
                specs.push(AggSpec { func, expr });
            }
            specs.push(AggSpec {
                func: AggFunc::Sum,
                expr: None,
            });

            use CmpOp::*;
            let conj = Conjunction::new(match filter {
                0 => vec![],
                1 => vec![ColPred::new(13, Lt, 60i64)],
                2 => vec![ColPred::new(13, Lt, 0i64)],
                // Nullable int: a range with a hole.
                3 => vec![
                    ColPred::new(10, Gt, -500i64),
                    ColPred::new(10, Le, 400i64),
                    ColPred::new(10, Ne, 7i64),
                ],
                // Nullable float, against int and float literals.
                4 => vec![ColPred::new(11, Ge, -20i64), ColPred::new(11, Lt, 60.5)],
                // Nullable text.
                5 => vec![ColPred::new(12, Gt, "a"), ColPred::new(12, Ne, "abc")],
                // Every type at once, and an int column under a float bound.
                _ => vec![
                    ColPred::new(13, Ge, 10i64),
                    ColPred::new(13, Lt, 80.5),
                    ColPred::new(11, Lt, 100.0),
                    ColPred::new(12, Le, "é"),
                ],
            });
            let group_cols: Vec<usize> = (0..kinds.len()).collect();
            assert_matches_reference(&cols, n, &conj, &group_cols, &specs);
        }

        /// A plain aggregate is one group whatever reaches it: no rows,
        /// no qualifying rows, or some — COUNTs 0 and the rest NULL when
        /// nothing qualified.
        #[test]
        fn zero_keys_are_one_group() {
            let seeds: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            for filter in 0..7 {
                check_against_reference(&[], &[], filter, false);
                check_against_reference(&seeds, &[], filter, false);
            }
        }

        proptest! {
            /// The typed kernel against the row-at-a-time reference: every
            /// key type (alone, in two- and three-column keys, and the
            /// empty key: exactly one group, qualifying rows or not),
            /// every aggregate over int, float, text and arithmetic
            /// arguments, with no, some or every row filtered out by
            /// predicates on every column type, across thread counts and
            /// morsel sizes.
            #[test]
            fn kernel_matches_row_at_a_time_reference(
                seeds in proptest::collection::vec(proptest::num::u64::ANY, 0..90),
                kinds in proptest::collection::vec(0u8..10, 0..4),
                filter in 0u8..7,
                big in proptest::bool::ANY,
            ) {
                check_against_reference(&seeds, &kinds, filter, big);
            }
        }
    }
}
