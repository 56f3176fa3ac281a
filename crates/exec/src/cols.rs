//! Column-source abstraction.
//!
//! Execution operators read materialised columns through this trait so the
//! engine can hand them either owned columns (fresh partial-load output) or
//! `Arc`-shared columns from the adaptive store without copying dense
//! arrays per query.

use std::collections::BTreeMap;
use std::sync::Arc;

use nodb_types::ColumnData;

/// Read access to a set of materialised columns keyed by ordinal.
pub trait Cols {
    /// The column with ordinal `id`, if materialised.
    fn get_col(&self, id: usize) -> Option<&ColumnData>;

    /// Ordinals of all materialised columns, ascending.
    fn col_ids(&self) -> Vec<usize>;
}

impl Cols for BTreeMap<usize, ColumnData> {
    fn get_col(&self, id: usize) -> Option<&ColumnData> {
        self.get(&id)
    }

    fn col_ids(&self) -> Vec<usize> {
        self.keys().copied().collect()
    }
}

impl Cols for BTreeMap<usize, Arc<ColumnData>> {
    fn get_col(&self, id: usize) -> Option<&ColumnData> {
        self.get(&id).map(|a| a.as_ref())
    }

    fn col_ids(&self) -> Vec<usize> {
        self.keys().copied().collect()
    }
}

/// A lone column is ordinal 0: a join of two key columns, say.
impl Cols for ColumnData {
    fn get_col(&self, id: usize) -> Option<&ColumnData> {
        (id == 0).then_some(self)
    }

    fn col_ids(&self) -> Vec<usize> {
        vec![0]
    }
}

impl<T: Cols + ?Sized> Cols for &T {
    fn get_col(&self, id: usize) -> Option<&ColumnData> {
        (**self).get_col(id)
    }

    fn col_ids(&self) -> Vec<usize> {
        (**self).col_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_map_flavours_work() {
        let mut plain: BTreeMap<usize, ColumnData> = BTreeMap::new();
        plain.insert(3, ColumnData::from_i64(vec![1]));
        assert!(plain.get_col(3).is_some());
        assert!(plain.get_col(0).is_none());
        assert_eq!(plain.col_ids(), vec![3]);

        let mut shared: BTreeMap<usize, Arc<ColumnData>> = BTreeMap::new();
        shared.insert(1, Arc::new(ColumnData::from_i64(vec![2])));
        assert_eq!(shared.get_col(1).unwrap().as_i64_slice().unwrap(), &[2]);
        assert_eq!(shared.col_ids(), vec![1]);
    }

    #[test]
    fn reference_passthrough() {
        let mut plain: BTreeMap<usize, ColumnData> = BTreeMap::new();
        plain.insert(0, ColumnData::from_i64(vec![7]));
        let r = &plain;
        assert_eq!(Cols::col_ids(&r), vec![0]);
    }
}
