//! Frequency matrices: the lowest level of the data cube of `T` (§II-B).

use crate::schema::Schema;
use crate::table::Table;
use crate::{DataError, Result};
use privelet_matrix::NdMatrix;

/// A d-dimensional matrix paired with the schema describing its dimensions.
///
/// Dimension `i` is indexed by the values of attribute `Aᵢ`; the cell at
/// `⟨x₁,…,x_d⟩` holds the number of tuples equal to that value vector. The
/// same type carries *noisy* matrices published by the mechanisms (cells
/// are then real-valued).
#[derive(Debug, Clone)]
pub struct FrequencyMatrix {
    schema: Schema,
    matrix: NdMatrix,
}

impl FrequencyMatrix {
    /// Builds the exact frequency matrix of a table in O(n + m).
    pub fn from_table(table: &Table) -> Result<Self> {
        let schema = table.schema().clone();
        let mut matrix = NdMatrix::zeros(&schema.dims()).map_err(|_| DataError::TooManyCells)?;
        let strides = matrix.shape().strides().to_vec();
        let data = matrix.as_mut_slice();
        let d = schema.arity();
        // Column-wise accumulation of each tuple's linear index avoids
        // materializing row buffers.
        let mut linear = vec![0usize; table.len()];
        for (attr, &stride) in strides.iter().enumerate().take(d) {
            for (acc, &v) in linear.iter_mut().zip(table.column(attr)) {
                *acc += v as usize * stride;
            }
        }
        for idx in linear {
            data[idx] += 1.0;
        }
        Ok(FrequencyMatrix { schema, matrix })
    }

    /// Wraps an existing matrix, validating that its dimensions match the
    /// schema and that every cell is finite: a NaN or ±∞ count would
    /// otherwise publish without complaint and surface only at serve
    /// time.
    pub fn from_parts(schema: Schema, matrix: NdMatrix) -> Result<Self> {
        if schema.dims() != matrix.dims() {
            return Err(DataError::ShapeMismatch);
        }
        if let Some(index) = matrix.as_slice().iter().position(|c| !c.is_finite()) {
            return Err(DataError::NonFiniteCell { index });
        }
        Ok(FrequencyMatrix { schema, matrix })
    }

    /// The schema describing the dimensions.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &NdMatrix {
        &self.matrix
    }

    /// Rounds every cell to the nearest integer and clamps below at
    /// zero: count post-processing of a noisy matrix, a pure function of
    /// the release. Finite cells stay finite, so the invariant
    /// [`from_parts`](Self::from_parts) checks still holds afterwards.
    pub fn round_nonnegative(&mut self) {
        self.matrix.round_nonnegative();
    }

    /// Total count (equals `n` for an exact matrix).
    pub fn total(&self) -> f64 {
        self.matrix.total()
    }

    /// Number of cells `m`.
    pub fn cell_count(&self) -> usize {
        self.matrix.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medical::medical_example;
    use crate::schema::{Attribute, Schema};

    #[test]
    fn medical_example_matches_table_ii() {
        let table = medical_example();
        let fm = FrequencyMatrix::from_table(&table).unwrap();
        // Table II: rows = age groups <30,30-39,40-49,50-59,>=60;
        // columns = {Yes, No}.
        let expect = [[0.0, 2.0], [0.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0]];
        for (age, row) in expect.iter().enumerate() {
            for (dia, &count) in row.iter().enumerate() {
                assert_eq!(
                    fm.matrix().get(&[age, dia]).unwrap(),
                    count,
                    "cell ({age},{dia})"
                );
            }
        }
        assert_eq!(fm.total(), 8.0);
        assert_eq!(fm.cell_count(), 10);
    }

    #[test]
    fn empty_table_gives_zero_matrix() {
        let schema =
            Schema::new(vec![Attribute::ordinal("a", 4), Attribute::ordinal("b", 3)]).unwrap();
        let fm = FrequencyMatrix::from_table(&Table::new(schema)).unwrap();
        assert_eq!(fm.total(), 0.0);
        assert_eq!(fm.cell_count(), 12);
    }

    #[test]
    fn from_parts_validates_shape() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 4)]).unwrap();
        let ok = NdMatrix::zeros(&[4]).unwrap();
        assert!(FrequencyMatrix::from_parts(schema.clone(), ok).is_ok());
        let bad = NdMatrix::zeros(&[5]).unwrap();
        assert_eq!(
            FrequencyMatrix::from_parts(schema, bad).unwrap_err(),
            DataError::ShapeMismatch
        );
    }

    #[test]
    fn rounding_keeps_cells_finite_integral_and_nonnegative() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 5)]).unwrap();
        let cells = vec![-3.7, -0.4, 0.5, 2.49, f64::MAX];
        let mut fm =
            FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(&[5], cells).unwrap()).unwrap();
        fm.round_nonnegative();
        assert_eq!(fm.matrix().as_slice(), &[0.0, 0.0, 1.0, 2.0, f64::MAX]);
        assert!(fm.matrix().as_slice().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn from_parts_refuses_non_finite_cells() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 8)]).unwrap();
        for (index, bad) in [(0, f64::NAN), (3, f64::INFINITY), (7, f64::NEG_INFINITY)] {
            let mut data = vec![1.0; 8];
            data[index] = bad;
            let matrix = NdMatrix::from_vec(&[8], data).unwrap();
            assert_eq!(
                FrequencyMatrix::from_parts(schema.clone(), matrix).unwrap_err(),
                DataError::NonFiniteCell { index }
            );
        }
        // The first bad cell is the one reported.
        let matrix = NdMatrix::from_vec(
            &[8],
            vec![1.0, 2.0, f64::NAN, f64::INFINITY, 0.0, 0.0, 0.0, 0.0],
        )
        .unwrap();
        assert_eq!(
            FrequencyMatrix::from_parts(schema, matrix).unwrap_err(),
            DataError::NonFiniteCell { index: 2 }
        );
    }

    #[test]
    fn counts_accumulate_duplicates() {
        let schema = Schema::new(vec![Attribute::ordinal("a", 2)]).unwrap();
        let mut t = Table::new(schema);
        for _ in 0..5 {
            t.push_row(&[1]).unwrap();
        }
        t.push_row(&[0]).unwrap();
        let fm = FrequencyMatrix::from_table(&t).unwrap();
        assert_eq!(fm.matrix().as_slice(), &[1.0, 5.0]);
    }
}
