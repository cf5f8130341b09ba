//! Attribute and schema definitions (§II-A's data model).

use crate::{DataError, Result};
use privelet_hierarchy::Hierarchy;
use std::sync::Arc;

/// The domain of an attribute.
#[derive(Debug, Clone)]
pub enum Domain {
    /// Discrete and totally ordered; values are `0..size`.
    Ordinal {
        /// Number of distinct values.
        size: usize,
    },
    /// Discrete and unordered, with an associated hierarchy whose leaves
    /// (in traversal order) are the values `0..leaf_count`.
    Nominal {
        /// The attribute's hierarchy (shared; hierarchies are immutable).
        hierarchy: Arc<Hierarchy>,
    },
}

impl Domain {
    /// Number of distinct attribute values `|A|`.
    pub fn size(&self) -> usize {
        match self {
            Domain::Ordinal { size } => *size,
            Domain::Nominal { hierarchy } => hierarchy.leaf_count(),
        }
    }

    /// Whether this is an ordinal domain.
    pub fn is_ordinal(&self) -> bool {
        matches!(self, Domain::Ordinal { .. })
    }

    /// The hierarchy, if nominal.
    pub fn hierarchy(&self) -> Option<&Arc<Hierarchy>> {
        match self {
            Domain::Ordinal { .. } => None,
            Domain::Nominal { hierarchy } => Some(hierarchy),
        }
    }
}

/// A named attribute.
#[derive(Debug, Clone)]
pub struct Attribute {
    name: String,
    domain: Domain,
}

impl Attribute {
    /// An ordinal attribute with values `0..size`.
    pub fn ordinal(name: impl Into<String>, size: usize) -> Self {
        Attribute {
            name: name.into(),
            domain: Domain::Ordinal { size },
        }
    }

    /// A nominal attribute with the given hierarchy.
    pub fn nominal(name: impl Into<String>, hierarchy: Hierarchy) -> Self {
        Attribute {
            name: name.into(),
            domain: Domain::Nominal {
                hierarchy: Arc::new(hierarchy),
            },
        }
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Domain size `|A|`.
    pub fn size(&self) -> usize {
        self.domain.size()
    }

    /// Whether this attribute is ordinal.
    pub fn is_ordinal(&self) -> bool {
        self.domain.is_ordinal()
    }
}

/// An ordered list of attributes `A₁ … A_d`.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, validating non-emptiness, unique names, non-empty
    /// domains, and that the cell count `m = ∏|Aᵢ|` fits in `usize`.
    pub fn new(attrs: Vec<Attribute>) -> Result<Self> {
        if attrs.is_empty() {
            return Err(DataError::EmptySchema);
        }
        let mut seen = std::collections::HashSet::new();
        for a in &attrs {
            if !seen.insert(a.name().to_string()) {
                return Err(DataError::DuplicateAttribute(a.name().to_string()));
            }
            if a.size() == 0 {
                return Err(DataError::EmptyDomain(a.name().to_string()));
            }
        }
        let mut cells: usize = 1;
        for a in &attrs {
            cells = cells.checked_mul(a.size()).ok_or(DataError::TooManyCells)?;
        }
        Ok(Schema { attrs })
    }

    /// Number of attributes `d`.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// All attributes, in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Attribute by index.
    pub fn attr(&self, i: usize) -> &Attribute {
        &self.attrs[i]
    }

    /// Dimension sizes `(|A₁|, …, |A_d|)` for the frequency matrix.
    pub fn dims(&self) -> Vec<usize> {
        self.attrs.iter().map(|a| a.size()).collect()
    }

    /// Total cell count `m = ∏|Aᵢ|`.
    pub fn cell_count(&self) -> usize {
        self.attrs.iter().map(|a| a.size()).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_hierarchy::builder::flat;

    fn two_attr_schema() -> Schema {
        Schema::new(vec![
            Attribute::ordinal("age", 5),
            Attribute::nominal("diabetes", flat(2).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn basic_properties() {
        let s = two_attr_schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.dims(), vec![5, 2]);
        assert_eq!(s.cell_count(), 10);
        assert!(s.attr(0).is_ordinal());
        assert!(!s.attr(1).is_ordinal());
        assert_eq!(s.attr(1).domain().hierarchy().unwrap().leaf_count(), 2);
    }

    #[test]
    fn rejects_invalid_schemas() {
        assert_eq!(Schema::new(vec![]).unwrap_err(), DataError::EmptySchema);
        assert_eq!(
            Schema::new(vec![Attribute::ordinal("a", 2), Attribute::ordinal("a", 3)]).unwrap_err(),
            DataError::DuplicateAttribute("a".into())
        );
        assert_eq!(
            Schema::new(vec![Attribute::ordinal("a", 0)]).unwrap_err(),
            DataError::EmptyDomain("a".into())
        );
        assert_eq!(
            Schema::new(vec![
                Attribute::ordinal("a", usize::MAX),
                Attribute::ordinal("b", 3),
            ])
            .unwrap_err(),
            DataError::TooManyCells
        );
    }

    #[test]
    fn nominal_size_is_leaf_count() {
        let h = flat(7).unwrap();
        let a = Attribute::nominal("x", h);
        assert_eq!(a.size(), 7);
    }
}
