//! Row/column access abstraction shared by materialized and factorized
//! training.
//!
//! Classifiers fundamentally consume `(feature, row) -> code` lookups plus
//! labels; they do not care whether codes live in one flat [`Dataset`] or
//! are resolved through foreign-key indirection against a normalized star
//! schema. [`CodeSource`] captures that access pattern. Because the SGD
//! and counting loops are generic over it, the materialized and factorized
//! paths execute the *same* sequence of floating-point operations and
//! therefore produce bitwise-identical models given identical codes.

use crate::dataset::Dataset;

/// Uniform access to an all-nominal labeled example collection.
///
/// Feature positions follow the same layout as the materialized
/// [`Dataset`] extracted from the corresponding join output, so a feature
/// index means the same column in both worlds.
pub trait CodeSource {
    /// Number of examples (rows).
    fn n_examples(&self) -> usize;

    /// Number of target classes `|D_Y|`.
    fn n_classes(&self) -> usize;

    /// Number of logical feature columns.
    fn n_features(&self) -> usize;

    /// Domain size `|D_F|` of feature `f`.
    fn feature_domain_size(&self, f: usize) -> usize;

    /// Name of feature `f`.
    fn feature_name(&self, f: usize) -> &str;

    /// Dense code of feature `f` on example `row`.
    fn code(&self, f: usize, row: usize) -> u32;

    /// Label of example `row`.
    fn label(&self, row: usize) -> u32;

    /// How feature `f` is stored when it lives behind a foreign key, so
    /// a scan over many rows can resolve the key once per row and share
    /// the result across every feature with the same `key`. `None` (the
    /// default) means the feature is only reachable through
    /// [`CodeSource::code`].
    fn keyed_codes(&self, _f: usize) -> Option<KeyedCodes<'_>> {
        None
    }
}

/// FK-keyed storage of one feature column:
/// `code(f, row) == codes[rid_to_row[fk_codes[row]]]`.
#[derive(Debug, Clone, Copy)]
pub struct KeyedCodes<'a> {
    /// Identifies the foreign key; features with equal keys share
    /// `fk_codes` and `rid_to_row`.
    pub key: usize,
    /// FK code of every example (length `n_examples`).
    pub fk_codes: &'a [u32],
    /// Attribute-table row of every FK code.
    pub rid_to_row: &'a [u32],
    /// The feature's codes by attribute-table row.
    pub codes: &'a [u32],
}

impl CodeSource for Dataset {
    fn n_examples(&self) -> usize {
        Dataset::n_examples(self)
    }

    fn n_classes(&self) -> usize {
        Dataset::n_classes(self)
    }

    fn n_features(&self) -> usize {
        Dataset::n_features(self)
    }

    fn feature_domain_size(&self, f: usize) -> usize {
        self.feature(f).domain_size
    }

    fn feature_name(&self, f: usize) -> &str {
        &self.feature(f).name
    }

    fn code(&self, f: usize, row: usize) -> u32 {
        self.feature(f).codes[row]
    }

    fn label(&self, row: usize) -> u32 {
        self.labels()[row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;

    #[test]
    fn dataset_implements_code_source() {
        let d = Dataset::new(
            vec![Feature {
                name: "a".into(),
                domain_size: 3,
                codes: vec![0, 2, 1],
            }],
            vec![1, 0, 1],
            2,
        );
        assert_eq!(CodeSource::n_examples(&d), 3);
        assert_eq!(CodeSource::n_classes(&d), 2);
        assert_eq!(CodeSource::n_features(&d), 1);
        assert_eq!(d.feature_domain_size(0), 3);
        assert_eq!(d.feature_name(0), "a");
        assert_eq!(d.code(0, 1), 2);
        assert_eq!(d.label(2), 1);
        assert!(d.keyed_codes(0).is_none());
    }
}
