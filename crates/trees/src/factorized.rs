//! Factorized tree training over a star schema — no join, same bits.
//!
//! CART split scoring needs one class-conditional count table per
//! (node, candidate feature). For foreign features the table is
//! assembled by the JoinBoost fold
//! (`hamlet_factorized::counts::class_conditional_counts`): a dense
//! `count(FK, Y | node rows)` group-by pushed down to the entity table,
//! mapped through the attribute column in `O(n_R)`. The integers are
//! exactly those a scan of the materialized join would produce, so the
//! shared growth code emits the identical tree. Peak extra allocation
//! is the `n_R × |D_Y|` FK histogram — independent of join fanout.
//!
//! GBT aggregates are float residual sums, where order matters; there
//! the factorized path runs the same scan as the materialized one, over
//! a train-position frame (see [`crate::gbt`]). Entity features are
//! gathered in train order; each FK is resolved once per training row
//! into an attribute-row array ([`CodeSource::keyed_codes`]) that all of
//! its table's features share, and foreign codes are read from the
//! attribute columns. Every residual bucket receives the same addends
//! in the same order as on the materialized path. The frame allocates
//! `O(n_train × (d_S + k))` and never a foreign column.

use hamlet_factorized::{class_conditional_counts, FactorizedView};
use hamlet_ml::CodeSource;

use crate::cart::{CartModel, CartTree, SplitCounts};
use crate::gbt::{Gbt, GbtModel};

/// [`SplitCounts`] over a [`FactorizedView`]: base features by entity
/// scan, foreign features by pushed-down count aggregates.
pub(crate) struct PushdownCounts<'a, 'b> {
    pub view: &'a FactorizedView<'b>,
}

impl SplitCounts for PushdownCounts<'_, '_> {
    fn n_classes(&self) -> usize {
        self.view.n_classes()
    }

    fn domain_size(&self, f: usize) -> usize {
        self.view.feature_domain_size(f)
    }

    fn label(&self, row: usize) -> u32 {
        self.view.label(row)
    }

    fn code(&self, f: usize, row: usize) -> u32 {
        self.view.code(f, row)
    }

    fn count_table(&self, f: usize, rows: &[usize]) -> Vec<u64> {
        // Morsel-parallel on large nodes, sequential inside sweep
        // workers — either way the counts are integers, so split
        // scores stay bit-identical at any HAMLET_THREADS.
        class_conditional_counts(self.view, f, rows)
    }
}

/// Trains a CART tree over the star schema without materializing any
/// join. Bit-for-bit identical to
/// `tree.fit(&materialized_dataset, rows, feats)` on the same logical
/// data.
pub fn fit_factorized_tree(
    view: &FactorizedView<'_>,
    tree: &CartTree,
    rows: &[usize],
    feats: &[usize],
) -> CartModel {
    tree.fit_with(&PushdownCounts { view }, rows, feats)
}

/// Trains a gradient-boosted ensemble over the star schema without
/// materializing any join. Bit-for-bit identical to
/// `gbt.fit(&materialized_dataset, rows, feats)` on the same logical
/// data.
pub fn fit_factorized_gbt(
    view: &FactorizedView<'_>,
    gbt: &Gbt,
    rows: &[usize],
    feats: &[usize],
) -> GbtModel {
    gbt.fit_source(view, rows, feats)
}
