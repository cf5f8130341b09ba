//! The medical-records example of Tables I and II.

use crate::schema::{Attribute, Schema};
use crate::table::Table;
use privelet_hierarchy::builder::flat;

/// Ordinal age groups of Table I, in order.
pub const AGE_GROUPS: [&str; 5] = ["<30", "30-39", "40-49", "50-59", ">=60"];

/// Nominal diabetes values (hierarchy leaves), in order.
pub const DIABETES: [&str; 2] = ["Yes", "No"];

/// The schema of Table I: ordinal `Age` (5 groups) × nominal
/// `Has Diabetes?` (flat 2-leaf hierarchy).
fn medical_schema() -> Schema {
    Schema::new(vec![
        Attribute::ordinal("Age", AGE_GROUPS.len()),
        Attribute::nominal(
            "Has Diabetes?",
            flat(DIABETES.len()).expect("flat(2) is valid"),
        ),
    ])
    .expect("medical schema is valid")
}

/// The eight medical records of Table I.
///
/// Age values index [`AGE_GROUPS`]; diabetes values index [`DIABETES`].
pub fn medical_example() -> Table {
    let rows: [[u32; 2]; 8] = [
        [0, 1], // <30, No
        [0, 1], // <30, No
        [1, 1], // 30-39, No
        [2, 1], // 40-49, No
        [2, 0], // 40-49, Yes
        [2, 1], // 40-49, No
        [3, 1], // 50-59, No
        [4, 0], // >=60, Yes
    ];
    Table::from_rows(medical_schema(), rows.iter().map(|r| r.as_slice()))
        .expect("medical rows fit the schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_eight_records() {
        let t = medical_example();
        assert_eq!(t.len(), 8);
        assert_eq!(t.schema().arity(), 2);
    }

    #[test]
    fn diabetes_count_matches_table_i() {
        let t = medical_example();
        let yes = t.column(1).iter().filter(|&&v| v == 0).count();
        assert_eq!(yes, 2, "Table I has two diabetes patients");
    }
}
