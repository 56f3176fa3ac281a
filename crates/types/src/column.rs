//! Typed column containers.
//!
//! `ColumnData` is the array-shaped currency of the engine: the tokenizer
//! produces it, the adaptive store caches it, the kernel scans it. Values are
//! stored unboxed per type (a `Vec<i64>` for int columns), with an optional
//! null mask allocated only when a null actually appears — the fast path for
//! the paper's all-integer workloads never touches the mask. Text is
//! dictionary-coded: one `u32` code per cell into a [`StrDict`] that
//! holds each distinct string once and is shared, not copied, by the
//! columns gathered from it.

use std::sync::Arc;

use crate::dict::StrDict;
use crate::error::{Error, Result};
use crate::value::{DataType, Value, ValueRef};

/// A typed, contiguous column of values.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers. `nulls[i] == true` means row `i` is NULL (the entry
    /// in `values` is then 0 and meaningless).
    Int64 {
        /// Unboxed values.
        values: Vec<i64>,
        /// Null mask; `None` means "no nulls anywhere".
        nulls: Option<Vec<bool>>,
    },
    /// 64-bit floats.
    Float64 {
        /// Unboxed values.
        values: Vec<f64>,
        /// Null mask; `None` means "no nulls anywhere".
        nulls: Option<Vec<bool>>,
    },
    /// UTF-8 strings, dictionary-coded. Every code names an entry of
    /// `dict`; a NULL row holds code 0, which names an entry unless the
    /// dictionary is empty — and then every row is NULL.
    Str {
        /// The column's distinct strings.
        dict: Arc<StrDict>,
        /// One code per row.
        codes: Vec<u32>,
        /// Null mask; `None` means "no nulls anywhere".
        nulls: Option<Vec<bool>>,
    },
}

/// Equality by value: two text columns are equal when their rows hold the
/// same strings, however their dictionaries are laid out.
impl PartialEq for ColumnData {
    fn eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (
                ColumnData::Int64 { values, nulls },
                ColumnData::Int64 {
                    values: v2,
                    nulls: n2,
                },
            ) => values == v2 && nulls == n2,
            (
                ColumnData::Float64 { values, nulls },
                ColumnData::Float64 {
                    values: v2,
                    nulls: n2,
                },
            ) => values == v2 && nulls == n2,
            (
                ColumnData::Str { dict, codes, nulls },
                ColumnData::Str {
                    dict: d2,
                    codes: c2,
                    nulls: n2,
                },
            ) => {
                codes.len() == c2.len()
                    && nulls == n2
                    && codes.iter().zip(c2).enumerate().all(|(i, (&a, &b))| {
                        nulls.as_ref().is_some_and(|m| m[i]) || dict.get(a) == d2.get(b)
                    })
            }
            _ => false,
        }
    }
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn empty(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int64 => ColumnData::Int64 {
                values: Vec::new(),
                nulls: None,
            },
            DataType::Float64 => ColumnData::Float64 {
                values: Vec::new(),
                nulls: None,
            },
            DataType::Str => ColumnData::Str {
                dict: Arc::default(),
                codes: Vec::new(),
                nulls: None,
            },
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(ty: DataType, cap: usize) -> ColumnData {
        match ty {
            DataType::Int64 => ColumnData::Int64 {
                values: Vec::with_capacity(cap),
                nulls: None,
            },
            DataType::Float64 => ColumnData::Float64 {
                values: Vec::with_capacity(cap),
                nulls: None,
            },
            DataType::Str => ColumnData::Str {
                dict: Arc::default(),
                codes: Vec::with_capacity(cap),
                nulls: None,
            },
        }
    }

    /// Build an int column from values (no nulls).
    pub fn from_i64(values: Vec<i64>) -> ColumnData {
        ColumnData::Int64 {
            values,
            nulls: None,
        }
    }

    /// Build a float column from values (no nulls).
    pub fn from_f64(values: Vec<f64>) -> ColumnData {
        ColumnData::Float64 {
            values,
            nulls: None,
        }
    }

    /// Build a string column from values (no nulls). Panics past
    /// [`MAX_ENTRIES`](crate::dict::MAX_ENTRIES) distinct values;
    /// [`ColumnData::push`] returns that as an error instead.
    pub fn from_strings(values: Vec<String>) -> ColumnData {
        let mut dict = StrDict::new();
        let codes = values
            .iter()
            .map(|s| dict.intern(s).expect("distinct strings fit u32 codes"))
            .collect();
        ColumnData::Str {
            dict: Arc::new(dict),
            codes,
            nulls: None,
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64 { .. } => DataType::Int64,
            ColumnData::Float64 { .. } => DataType::Float64,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64 { values, .. } => values.len(),
            ColumnData::Float64 { values, .. } => values.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is row `i` null?
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnData::Int64 { nulls, .. }
            | ColumnData::Float64 { nulls, .. }
            | ColumnData::Str { nulls, .. } => nulls.as_ref().map(|m| m[i]).unwrap_or(false),
        }
    }

    /// Boxed value at row `i` (panics on out-of-range, like slice indexing).
    pub fn get(&self, i: usize) -> Value {
        // Not `get_ref(i).to_value()`: the row-at-a-time kernels call this
        // per row, and the double conversion measured 11 % slower end to
        // end on short warm aggregates.
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            ColumnData::Int64 { values, .. } => Value::Int(values[i]),
            ColumnData::Float64 { values, .. } => Value::Float(values[i]),
            ColumnData::Str { dict, codes, .. } => Value::Str(dict.get(codes[i]).to_owned()),
        }
    }

    /// Borrowed value at row `i` — [`ColumnData::get`] without the string
    /// clone (panics on out-of-range, like slice indexing).
    pub fn get_ref(&self, i: usize) -> ValueRef<'_> {
        if self.is_null(i) {
            return ValueRef::Null;
        }
        match self {
            ColumnData::Int64 { values, .. } => ValueRef::Int(values[i]),
            ColumnData::Float64 { values, .. } => ValueRef::Float(values[i]),
            ColumnData::Str { dict, codes, .. } => ValueRef::Str(dict.get(codes[i])),
        }
    }

    /// Append a (possibly null) value; the value must match the column type.
    pub fn push(&mut self, v: Value) -> Result<()> {
        let n = self.len();
        match (self, v) {
            (ColumnData::Int64 { values, nulls }, Value::Int(x)) => {
                values.push(x);
                if let Some(m) = nulls {
                    m.push(false);
                }
            }
            (ColumnData::Float64 { values, nulls }, Value::Float(x)) => {
                values.push(x);
                if let Some(m) = nulls {
                    m.push(false);
                }
            }
            (ColumnData::Str { dict, codes, nulls }, Value::Str(x)) => {
                codes.push(Arc::make_mut(dict).intern(&x)?);
                if let Some(m) = nulls {
                    m.push(false);
                }
            }
            (col, Value::Null) => match col {
                ColumnData::Int64 { values, nulls } => {
                    values.push(0);
                    nulls.get_or_insert_with(|| vec![false; n]).push(true);
                }
                ColumnData::Float64 { values, nulls } => {
                    values.push(0.0);
                    nulls.get_or_insert_with(|| vec![false; n]).push(true);
                }
                ColumnData::Str { codes, nulls, .. } => {
                    codes.push(0);
                    nulls.get_or_insert_with(|| vec![false; n]).push(true);
                }
            },
            (col, v) => {
                return Err(Error::schema(format!(
                    "type mismatch: pushing {:?} into {} column",
                    v,
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Build a column of type `ty` from boxed values.
    pub fn from_values(ty: DataType, vals: impl IntoIterator<Item = Value>) -> Result<ColumnData> {
        let iter = vals.into_iter();
        let mut col = ColumnData::with_capacity(ty, iter.size_hint().0);
        for v in iter {
            col.push(v)?;
        }
        Ok(col)
    }

    /// Move all rows of `other` onto the end of `self` (bulk, typed; no
    /// per-value boxing). The columns must have the same type.
    pub fn append(&mut self, mut other: ColumnData) -> Result<()> {
        self.append_from(&mut other)
    }

    /// Move all rows of `other` onto the end of `self`, leaving `other`
    /// empty with its value capacity kept, so a buffer that is filled and
    /// drained over and over allocates once. The columns must have the
    /// same type. Text from another dictionary is interned into this
    /// column's, in the order its rows first name it, and its codes are
    /// remapped; a column with no entry (no rows, or only NULLs) takes the
    /// source's dictionary as it is.
    pub fn append_from(&mut self, other: &mut ColumnData) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(Error::schema(format!(
                "cannot append {} column to {} column",
                other.data_type(),
                self.data_type()
            )));
        }
        fn merge<T>(
            (dst, dst_mask): (&mut Vec<T>, &mut Option<Vec<bool>>),
            (src, src_mask): (&mut Vec<T>, &mut Option<Vec<bool>>),
        ) {
            let (dst_len, src_len) = (dst.len(), src.len());
            dst.append(src);
            match (dst_mask.as_mut(), src_mask.take()) {
                (None, None) => {}
                (Some(d), None) => d.extend(std::iter::repeat_n(false, src_len)),
                (None, Some(s)) => {
                    let mut m = vec![false; dst_len];
                    m.extend(s);
                    *dst_mask = Some(m);
                }
                (Some(d), Some(s)) => d.extend(s),
            }
        }
        match (self, other) {
            (
                ColumnData::Int64 { values, nulls },
                ColumnData::Int64 {
                    values: v2,
                    nulls: n2,
                },
            ) => merge((values, nulls), (v2, n2)),
            (
                ColumnData::Float64 { values, nulls },
                ColumnData::Float64 {
                    values: v2,
                    nulls: n2,
                },
            ) => merge((values, nulls), (v2, n2)),
            (
                ColumnData::Str { dict, codes, nulls },
                ColumnData::Str {
                    dict: d2,
                    codes: c2,
                    nulls: n2,
                },
            ) => {
                // No row names an entry of an empty dictionary.
                if codes.is_empty() || dict.is_empty() {
                    *dict = Arc::clone(d2);
                } else if !Arc::ptr_eq(dict, d2) {
                    recode(dict, d2, c2, n2.as_deref())?;
                }
                merge((codes, nulls), (c2, n2));
                match Arc::get_mut(d2) {
                    Some(d) => d.clear(),
                    None => *d2 = Arc::default(),
                }
            }
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Gather rows by index into a new column (panics on out-of-range).
    /// A text column's gather shares its dictionary.
    pub fn take(&self, indices: &[usize]) -> ColumnData {
        // Typed fast paths: no per-value boxing.
        let mask = |nulls: &Option<Vec<bool>>| {
            nulls
                .as_ref()
                .map(|m| indices.iter().map(|&i| m[i]).collect())
        };
        match self {
            ColumnData::Int64 { values, nulls } => ColumnData::Int64 {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: mask(nulls),
            },
            ColumnData::Float64 { values, nulls } => ColumnData::Float64 {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: mask(nulls),
            },
            ColumnData::Str { dict, codes, nulls } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: indices.iter().map(|&i| codes[i]).collect(),
                nulls: mask(nulls),
            },
        }
    }

    /// Iterate boxed values (convenience for tests and row-at-a-time paths).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Direct access to int values. `None` if not an int column.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            ColumnData::Int64 { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Direct access to float values. `None` if not a float column.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            ColumnData::Float64 { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Approximate memory footprint in bytes (for store accounting).
    pub fn approx_bytes(&self) -> usize {
        let mask = |m: &Option<Vec<bool>>| m.as_ref().map(|v| v.len()).unwrap_or(0);
        match self {
            ColumnData::Int64 { values, nulls } => values.len() * 8 + mask(nulls),
            ColumnData::Float64 { values, nulls } => values.len() * 8 + mask(nulls),
            ColumnData::Str { dict, codes, nulls } => {
                codes.len() * 4 + mask(nulls) + dict.approx_bytes()
            }
        }
    }
}

/// Rewrite `codes` (of `src`'s entries) as codes of `dict`, interning each
/// entry the non-NULL rows name, in the order they first name it. NULL
/// rows get code 0.
fn recode(
    dict: &mut Arc<StrDict>,
    src: &StrDict,
    codes: &mut [u32],
    nulls: Option<&[bool]>,
) -> Result<()> {
    if src.is_empty() {
        // Every row is NULL and already holds code 0.
        return Ok(());
    }
    let dict = Arc::make_mut(dict);
    let mut to = vec![u32::MAX; src.len()];
    let mut recode = |c: &mut u32| -> Result<()> {
        let slot = &mut to[*c as usize];
        if *slot == u32::MAX {
            *slot = dict.intern_from(src, *c)?;
        }
        *c = *slot;
        Ok(())
    };
    match nulls {
        None => codes.iter_mut().try_for_each(recode),
        Some(m) => codes.iter_mut().zip(m).try_for_each(|(c, &null)| {
            if null {
                *c = 0;
                Ok(())
            } else {
                recode(c)
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = ColumnData::empty(DataType::Int64);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(3));
        assert!(c.is_null(1));
        assert!(!c.is_null(2));
    }

    #[test]
    fn null_mask_lazily_allocated() {
        let mut c = ColumnData::empty(DataType::Float64);
        c.push(Value::Float(1.0)).unwrap();
        assert!(matches!(&c, ColumnData::Float64 { nulls: None, .. }));
        c.push(Value::Null).unwrap();
        assert!(matches!(&c, ColumnData::Float64 { nulls: Some(_), .. }));
        // Mask must be retroactively correct for earlier rows.
        assert!(!c.is_null(0));
        assert!(c.is_null(1));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = ColumnData::empty(DataType::Int64);
        assert!(c.push(Value::Str("x".into())).is_err());
        assert!(c.push(Value::Float(1.0)).is_err());
    }

    #[test]
    fn append_from_drains_the_source_and_keeps_its_capacity() {
        let mut dst = ColumnData::from_i64(vec![1]);
        let mut src = ColumnData::with_capacity(DataType::Int64, 8);
        src.push(Value::Null).unwrap();
        src.push(Value::Int(3)).unwrap();
        dst.append_from(&mut src).unwrap();
        // The mask appears with the source's NULL, retroactively false.
        let want: Vec<Value> = vec![Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(dst.iter_values().collect::<Vec<_>>(), want);
        assert_eq!(src, ColumnData::empty(DataType::Int64));
        assert!(matches!(&src, ColumnData::Int64 { values, .. } if values.capacity() >= 8));
        // A later NULL-free source extends the mask with `false`.
        src.push(Value::Int(4)).unwrap();
        dst.append_from(&mut src).unwrap();
        assert_eq!(dst.len(), 4);
        assert!(!dst.is_null(3));
        assert!(dst
            .append_from(&mut ColumnData::empty(DataType::Str))
            .is_err());
    }

    #[test]
    fn take_gathers_in_order() {
        let c = ColumnData::from_i64(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.as_i64_slice().unwrap(), &[40, 10, 10]);
    }

    #[test]
    fn take_preserves_nulls() {
        let mut c = ColumnData::empty(DataType::Str);
        c.push(Value::Str("a".into())).unwrap();
        c.push(Value::Null).unwrap();
        let t = c.take(&[1, 0]);
        assert_eq!(t.get(0), Value::Null);
        assert_eq!(t.get(1), Value::Str("a".into()));
    }

    #[test]
    fn from_values_checks_types() {
        let ok = ColumnData::from_values(
            DataType::Int64,
            vec![Value::Int(1), Value::Null, Value::Int(2)],
        )
        .unwrap();
        assert_eq!(ok.len(), 3);
        let err = ColumnData::from_values(DataType::Int64, vec![Value::Float(1.0)]);
        assert!(err.is_err());
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let a = ColumnData::from_i64(vec![1; 10]).approx_bytes();
        let b = ColumnData::from_i64(vec![1; 20]).approx_bytes();
        assert_eq!(b, 2 * a);
    }

    fn text(cells: &[Option<&str>]) -> ColumnData {
        let cells = cells.iter().map(|c| c.map_or(Value::Null, Value::from));
        ColumnData::from_values(DataType::Str, cells).unwrap()
    }

    fn dict(col: &ColumnData) -> &Arc<StrDict> {
        match col {
            ColumnData::Str { dict, .. } => dict,
            _ => panic!("not a text column"),
        }
    }

    #[test]
    fn text_cells_are_codes_into_one_dictionary() {
        let c = text(&[Some("b"), None, Some("a"), Some("b"), Some("")]);
        assert!(matches!(&c, ColumnData::Str { codes, .. } if codes == &[0, 0, 1, 0, 2]));
        assert_eq!(dict(&c).entries().collect::<Vec<_>>(), ["b", "a", ""]);
        assert_eq!(c.get(3), Value::Str("b".into()));
        assert_eq!(c.get_ref(4), ValueRef::Str(""));
        assert_eq!(c.get(1), Value::Null);
        // Codes, the mask, then the dictionary: text, offsets and hashes,
        // 16 slots.
        assert_eq!(c.approx_bytes(), 5 * 4 + 5 + (2 + 3 * (8 + 4) + 16 * 4));
        // An all-NULL column has an empty dictionary.
        let nulls = text(&[None, None]);
        assert!(dict(&nulls).is_empty());
        assert_eq!(
            nulls.iter_values().collect::<Vec<_>>(),
            [Value::Null, Value::Null]
        );
    }

    #[test]
    fn text_equality_is_by_value_not_by_dictionary_layout() {
        let a = text(&[Some("x"), Some("y"), None]);
        let mut b = text(&[Some("y"), Some("x"), None]).take(&[1, 0, 2]);
        assert_eq!(a, b);
        assert_ne!(dict(&a).get(0), dict(&b).get(0));
        b.push(Value::Str("z".into())).unwrap();
        assert_ne!(a, b);
        assert_ne!(text(&[Some("")]), text(&[None]));
        assert_ne!(text(&[Some("x")]), ColumnData::from_i64(vec![0]));
    }

    #[test]
    fn take_shares_the_dictionary() {
        let c = text(&[Some("a"), Some("b"), None]);
        let t = c.take(&[2, 1, 1]);
        assert!(Arc::ptr_eq(dict(&c), dict(&t)));
        assert_eq!(t, text(&[None, Some("b"), Some("b")]));
    }

    #[test]
    fn text_append_interns_and_remaps_in_first_appearance_order() {
        // Parts as the loader fills them: each its own dictionary.
        let mut dst = ColumnData::with_capacity(DataType::Str, 8);
        let mut part = ColumnData::empty(DataType::Str);
        for cells in [
            &[Some("p"), None, Some("q")][..],
            &[None, Some("r"), Some("q"), Some("p")],
            &[None],
            &[Some("s"), Some("é")],
        ] {
            for c in cells {
                part.push(c.map_or(Value::Null, Value::from)).unwrap();
            }
            dst.append_from(&mut part).unwrap();
            // Drained: no row and no entry left behind for the next fill.
            assert!(part.is_empty() && dict(&part).is_empty());
        }
        let want = [
            Some("p"),
            None,
            Some("q"),
            None,
            Some("r"),
            Some("q"),
            Some("p"),
            None,
            Some("s"),
            Some("é"),
        ];
        assert_eq!(dst, text(&want));
        let entries: Vec<&str> = dict(&dst).entries().collect();
        assert_eq!(entries, ["p", "q", "r", "s", "é"]);
        assert!(matches!(&dst, ColumnData::Str { codes, .. }
            if codes == &[0, 0, 1, 0, 2, 1, 0, 0, 3, 4]));
        assert_eq!(dst.approx_bytes(), text(&want).approx_bytes());

        // A gather of the destination appends by code; one of another
        // column remaps only the entries its rows name.
        let before = dict(&dst).len();
        dst.append(dst.take(&[4, 1])).unwrap();
        assert_eq!(dict(&dst).len(), before);
        let other = text(&[Some("unused"), Some("t"), None]);
        dst.append(other.take(&[2, 1])).unwrap();
        assert_eq!(dict(&dst).len(), before + 1);
        assert_eq!(dst.get(12), Value::Null);
        assert_eq!(dst.get(13), Value::Str("t".into()));
    }

    #[test]
    fn iter_values_matches_get() {
        let c = ColumnData::from_f64(vec![1.5, 2.5]);
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(vals, vec![Value::Float(1.5), Value::Float(2.5)]);
    }
}
