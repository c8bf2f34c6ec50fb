//! Request validation and execution: the one code path every serving
//! entry point shares.
//!
//! Validation is pure over the snapshot's [`Schema`] and [`Catalog`];
//! scoring goes through the [`ScoringBackend`] trait so the frozen
//! serving path and the engine's live (non-freezable) estimators answer
//! the same requests with identical semantics. [`crate::ModelServer`]
//! wires these functions to its current snapshot; `gmlfm-engine`'s
//! `Recommender` wires them to whichever serving form it holds.

use crate::catalog::{Catalog, SeenItems};
use crate::error::RequestError;
use crate::protocol::{BatchRequest, Interaction, Reply, Request, ScoreRequest, TopNRequest};
use gmlfm_data::{FieldKind, Schema};
use gmlfm_par::Parallelism;
use gmlfm_serve::{
    sharded_top_n_blocks, FrozenModel, ItemFeatureSource, IvfIndex, RetrievalStrategy, TopNHeap,
};
use std::borrow::Cow;
use std::cell::RefCell;

/// Worker count of one standalone request: the process setting,
/// [`Parallelism::auto`] (`GMLFM_THREADS`, else the core count).
/// Requests carry no thread count of their own — the server sees how
/// much work a request is, and this is the one place that sizes it.
pub fn standalone_par() -> Parallelism {
    Parallelism::auto()
}

/// Worker count of a request answered inside a fan-out — a batch's
/// sub-requests, the leave-one-out protocol's cases: serial, because the
/// fan-out already spreads the work across the pool.
pub const NESTED_PAR: Parallelism = Parallelism::serial();

/// What executes a validated request: one score per feature vector,
/// catalogue candidate scoring for the evaluation protocols, and
/// bounded-heap top-N selection for ranking requests.
///
/// Implementations may ignore `par` (the engine's live estimators score
/// through their own batch path); the frozen implementation partitions
/// candidates across the `gmlfm-par` pool with one
/// [`gmlfm_serve::TopNRanker`] per worker block, merged in candidate
/// order — bit-identical to serial at every thread count.
pub trait ScoringBackend {
    /// Scores one validated feature vector.
    fn score_feats(&self, feats: &[u32]) -> f64;

    /// Scores `candidates` for the user whose resolved feature
    /// `template` is given ([`Catalog::template`]), returning one score
    /// per candidate **in candidate order**.
    ///
    /// The template is the validation evidence: it only exists for an
    /// in-range user, so implementations never re-check the user id.
    /// Candidates are validated against the same catalog before they get
    /// here, so their item-table rows are in range by construction.
    fn candidate_scores(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        par: Parallelism,
    ) -> Vec<f64>;

    /// Selects the top `n` of resolved `candidates` for the user with
    /// feature `template` under the retrieval total order
    /// ([`gmlfm_serve::rank_cmp`]: score descending, ties by ascending
    /// item id), best first.
    ///
    /// The default implementation scores everything through
    /// [`candidate_scores`] and selects with one bounded [`TopNHeap`] —
    /// `O(C·log n)` selection, never a full sort. The frozen
    /// implementation overrides this with per-shard rankers
    /// ([`sharded_top_n`]), which also skips materialising the `O(C)`
    /// score vector. Both produce item-for-item identical rankings.
    ///
    /// [`candidate_scores`]: ScoringBackend::candidate_scores
    /// [`sharded_top_n`]: gmlfm_serve::sharded_top_n
    fn select_top_n(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        n: usize,
        par: Parallelism,
    ) -> Vec<(u32, f64)> {
        let scores = self.candidate_scores(catalog, template, candidates, par);
        let mut heap = TopNHeap::new(n);
        for (&item, score) in candidates.iter().zip(scores) {
            heap.push(item, score);
        }
        heap.into_sorted()
    }

    /// Index-backed whole-catalogue retrieval, when this backend can
    /// serve it: the top `n` non-excluded items via an IVF probe
    /// ([`gmlfm_serve::IvfIndex::search`]), scores bitwise the exact
    /// ranker's.
    /// `excluded` is the **sorted, deduplicated** union of the request's
    /// explicit exclusions and the user's seen items.
    ///
    /// Returns `None` when the backend holds no usable index for this
    /// request (no index, candidate pool below the index's
    /// `min_candidates`, `n` too large a fraction of the pool, catalogue
    /// size mismatch) — the caller then falls back to the sharded heap
    /// scan. The default implementation always falls back.
    #[allow(clippy::too_many_arguments)]
    fn select_top_n_indexed(
        &self,
        _catalog: &Catalog,
        _template: &[u32],
        _n: usize,
        _nprobe: Option<usize>,
        _excluded: &[u32],
        _par: Parallelism,
    ) -> Option<Vec<(u32, f64)>> {
        None
    }
}

/// A frozen model paired with its (optional) IVF index: the backend a
/// [`crate::ModelServer`] snapshot actually serves through. Scoring and
/// exact retrieval delegate to the model; whole-catalogue top-n
/// requests additionally get the indexed path when the index can serve
/// them (see [`ScoringBackend::select_top_n_indexed`]).
#[derive(Debug, Clone, Copy)]
pub struct IndexedModel<'a> {
    /// The frozen scoring model.
    pub frozen: &'a FrozenModel,
    /// The catalogue index, when the snapshot carries one.
    pub index: Option<&'a IvfIndex>,
}

impl ScoringBackend for IndexedModel<'_> {
    fn score_feats(&self, feats: &[u32]) -> f64 {
        self.frozen.score_feats(feats)
    }

    fn candidate_scores(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        par: Parallelism,
    ) -> Vec<f64> {
        self.frozen.candidate_scores(catalog, template, candidates, par)
    }

    fn select_top_n(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        n: usize,
        par: Parallelism,
    ) -> Vec<(u32, f64)> {
        self.frozen.select_top_n(catalog, template, candidates, n, par)
    }

    #[allow(clippy::too_many_arguments)]
    fn select_top_n_indexed(
        &self,
        catalog: &Catalog,
        template: &[u32],
        n: usize,
        nprobe: Option<usize>,
        excluded: &[u32],
        par: Parallelism,
    ) -> Option<Vec<(u32, f64)>> {
        let index = self.index?;
        if index.n_items() != catalog.n_items() {
            return None;
        }
        // Below these sizes the probe bookkeeping costs more than the
        // scan it saves — serve exactly.
        let surviving = catalog.n_items() - excluded.len();
        if surviving < index.min_candidates() || n.saturating_mul(4) > surviving {
            return None;
        }
        let nprobe = nprobe.unwrap_or_else(|| index.default_nprobe()).clamp(1, index.n_clusters());
        Some(index.search(self.frozen, catalog, template, catalog.item_slots(), n, nprobe, par, &|item| {
            excluded.binary_search(&item).is_ok()
        }))
    }
}

impl ScoringBackend for FrozenModel {
    fn score_feats(&self, feats: &[u32]) -> f64 {
        self.predict_feats(feats)
    }

    fn candidate_scores(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        par: Parallelism,
    ) -> Vec<f64> {
        let item_slots = catalog.item_slots();
        gmlfm_par::par_blocks(par, candidates.len(), |range| {
            // One ranker per worker block: the context partial sums are
            // computed once and reused for every candidate in the block.
            let mut ranker = self.ranker(template, item_slots);
            candidates[range]
                .iter()
                .map(|&item| ranker.score(catalog.features_of(item)))
                .collect()
        })
    }

    /// Sharded bounded-heap retrieval: one contiguous candidate shard
    /// per requested worker, each with its own [`gmlfm_serve::TopNRanker`]
    /// (context partials computed once per shard) and size-`n`
    /// [`TopNHeap`], merged in shard order under [`gmlfm_serve::rank_cmp`]. No full
    /// score vector and no full sort — `O(C·k + C·log n)` per request.
    /// Candidates are scored in fixed-width blocks
    /// ([`gmlfm_serve::TopNRanker::score_block`]) so the delta-scan inner
    /// loops stay in the chunked kernels; block scoring is bitwise the
    /// per-item path.
    fn select_top_n(
        &self,
        catalog: &Catalog,
        template: &[u32],
        candidates: &[u32],
        n: usize,
        par: Parallelism,
    ) -> Vec<(u32, f64)> {
        let item_slots = catalog.item_slots();
        sharded_top_n_blocks(
            candidates,
            n,
            par.get_nonzero(),
            par,
            || self.ranker(template, item_slots),
            |ranker, ids, out| ranker.score_block(catalog, ids, out),
        )
    }
}

/// Validates a [`ScoreRequest`] and resolves it into the feature vector
/// to score. Borrows the request's own indices where possible.
pub fn resolve_feats<'r>(
    schema: &Schema,
    catalog: Option<&Catalog>,
    req: &'r ScoreRequest,
) -> Result<Cow<'r, [u32]>, RequestError> {
    let n = schema.total_dim();
    let check = |feats: &[u32]| -> Result<(), RequestError> {
        match feats.iter().find(|&&f| f as usize >= n) {
            Some(&feature) => Err(RequestError::FeatureOutOfRange { feature, n_features: n }),
            None => Ok(()),
        }
    };
    match req {
        ScoreRequest::Instance(inst) => {
            check(&inst.feats)?;
            Ok(Cow::Borrowed(inst.feats.as_slice()))
        }
        ScoreRequest::Feats(feats) => {
            check(feats)?;
            Ok(Cow::Borrowed(feats.as_slice()))
        }
        ScoreRequest::Pair { user, item } => {
            let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
            let template = user_template(catalog, *user)?;
            let group = item_group(catalog, *item)?;
            Ok(Cow::Owned(catalog.splice(template, group)))
        }
        ScoreRequest::Cold { item, fields } => {
            let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
            let mut feats: Vec<u32> = item_group(catalog, *item)?.to_vec();
            push_user_fields(schema, fields, &mut feats)?;
            // Global indices ascend with field order, so sorting restores
            // the field order a schema-built instance would have (which
            // the order-dependent TransFM mode cares about).
            feats.sort_unstable();
            Ok(Cow::Owned(feats))
        }
    }
}

/// Validates named user-side `(field, value)` pairs against the schema
/// and appends their global feature indices to `feats` — the shared
/// validation of [`ScoreRequest::Cold`] requests and fed
/// [`Interaction`]s: unknown, duplicated, item-side, and out-of-range
/// fields are all typed errors.
fn push_user_fields(
    schema: &Schema,
    fields: &[(String, usize)],
    feats: &mut Vec<u32>,
) -> Result<(), RequestError> {
    for (i, (name, value)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(prev, _)| prev == name) {
            return Err(RequestError::DuplicateField { field: name.clone() });
        }
        let field_idx = schema
            .fields()
            .iter()
            .position(|f| &f.name == name)
            .ok_or_else(|| RequestError::UnknownField { field: name.clone() })?;
        let field = &schema.fields()[field_idx];
        if !matches!(field.kind, FieldKind::User | FieldKind::UserAttr) {
            return Err(RequestError::ItemSideField { field: name.clone() });
        }
        if *value >= field.cardinality {
            return Err(RequestError::ValueOutOfRange {
                field: name.clone(),
                value: *value,
                cardinality: field.cardinality,
            });
        }
        feats.push(schema.feature_index(field_idx, *value));
    }
    Ok(())
}

/// Validates a streamed [`Interaction`] against the snapshot's schema
/// and catalog and resolves the full training feature vector it
/// contributes: the catalog's `(user, item)` splice plus any validated
/// extra user-side fields, sorted into schema field order.
pub fn resolve_interaction(
    schema: &Schema,
    catalog: Option<&Catalog>,
    event: &Interaction,
) -> Result<Vec<u32>, RequestError> {
    let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
    let template = user_template(catalog, event.user)?;
    let group = item_group(catalog, event.item)?;
    let mut feats = catalog.splice(template, group);
    push_user_fields(schema, &event.fields, &mut feats)?;
    feats.sort_unstable();
    feats.dedup();
    Ok(feats)
}

/// Validates and runs a [`ScoreRequest`] through `backend`.
pub fn execute_score<B: ScoringBackend + ?Sized>(
    backend: &B,
    schema: &Schema,
    catalog: Option<&Catalog>,
    req: &ScoreRequest,
) -> Result<f64, RequestError> {
    let feats = resolve_feats(schema, catalog, req)?;
    Ok(backend.score_feats(&feats))
}

/// Validates a [`TopNRequest`] against the catalog: user id, explicit
/// exclusions, and any explicit candidate list. Returns the user's
/// resolved feature template — the evidence of validity the scoring
/// backends consume instead of re-checking the user id.
fn validate_topn<'c>(catalog: &'c Catalog, req: &TopNRequest) -> Result<&'c [u32], RequestError> {
    let template = user_template(catalog, req.user)?;
    for &item in &req.exclude {
        check_item(catalog, item)?;
    }
    if let Some(candidates) = &req.candidates {
        for &item in candidates {
            check_item(catalog, item)?;
        }
    }
    Ok(template)
}

/// Fills `out` with the surviving candidates of a *validated* request:
/// the requested set (or the whole catalogue) minus `excluded`, the skip
/// set [`fill_excluded`] built for the same request. Order of the
/// surviving candidates is preserved.
fn fill_candidates(catalog: &Catalog, excluded: &[u32], req: &TopNRequest, out: &mut Vec<u32>) {
    out.clear();
    let keep = |item: &u32| excluded.binary_search(item).is_err();
    match &req.candidates {
        Some(candidates) => out.extend(candidates.iter().copied().filter(keep)),
        None => out.extend((0..catalog.n_items() as u32).filter(keep)),
    }
}

/// Fills `out` with the sorted, deduplicated union of the request's
/// explicit exclusions and — unless opted out — the user's training-time
/// seen items plus the `live` overlay items (interactions fed since the
/// snapshot was published): the one skip set both retrieval paths filter
/// through, by binary search.
fn fill_excluded(seen: Option<&SeenItems>, live: &[u32], req: &TopNRequest, out: &mut Vec<u32>) {
    out.clear();
    if req.exclude_seen {
        if let Some(seen) = seen {
            out.extend_from_slice(seen.items(req.user));
        }
        out.extend_from_slice(live);
    }
    out.extend_from_slice(&req.exclude);
    out.sort_unstable();
    out.dedup();
}

/// Validates and runs a [`TopNRequest`] through `backend`, returning
/// `(item, score)` pairs **in candidate order** (no sort, `n` ignored) —
/// the shape the leave-one-out evaluation protocols consume. `live` is
/// the user's sorted overlay items (interactions fed since the snapshot
/// was published; empty for none), excluded under the same
/// `exclude_seen` semantics as the snapshot seen sets. `par` is the
/// worker count: [`standalone_par`] for a request of its own,
/// [`NESTED_PAR`] inside a fan-out.
pub fn execute_candidate_scores_live<B: ScoringBackend + ?Sized>(
    backend: &B,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    live: &[u32],
    req: &TopNRequest,
    par: Parallelism,
) -> Result<Vec<(u32, f64)>, RequestError> {
    let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
    let template = validate_topn(catalog, req)?;
    let mut excluded = Vec::new();
    fill_excluded(seen, live, req, &mut excluded);
    let mut candidates = Vec::new();
    fill_candidates(catalog, &excluded, req, &mut candidates);
    let scores = backend.candidate_scores(catalog, template, &candidates, par);
    Ok(candidates.into_iter().zip(scores).collect())
}

/// Request-scoped scratch reused across the top-n hot path: the
/// resolved candidate list is `O(catalogue)` and rebuilding its backing
/// allocation on every request dominated steady-state serving's
/// allocator traffic. One scratch per thread; `mem::take` keeps a
/// re-entrant caller (a backend that itself executes requests) safe —
/// the inner call simply allocates fresh buffers.
#[derive(Default)]
struct TopNScratch {
    candidates: Vec<u32>,
    excluded: Vec<u32>,
}

thread_local! {
    static TOPN_SCRATCH: RefCell<TopNScratch> = RefCell::new(TopNScratch::default());
}

/// Validates and runs a [`TopNRequest`] through `backend`: the top
/// `req.n` candidates, best first, under the deterministic retrieval
/// order ([`gmlfm_serve::rank_cmp`]: score descending, ties broken by ascending item
/// id).
///
/// Whole-catalogue requests that don't pin
/// [`RetrievalStrategy::Exact`] are first offered to
/// [`ScoringBackend::select_top_n_indexed`] (the IVF path of indexed
/// snapshots — approximate candidate set, exact scores); everything
/// else, and any request the index declines, goes through
/// [`ScoringBackend::select_top_n`] — sharded bounded heaps for frozen
/// snapshots — never a full sort. Exclusion filtering (explicit lists,
/// seen items and the `live` overlay — the user's sorted items fed since
/// the snapshot was published, empty for none) runs **before** selection
/// on both paths, so excluded items never occupy result slots; this is
/// how a fed event leaves a user's recommendations *before* any retrain
/// publishes. `req.n = 0` yields an empty ranking; `req.n` beyond the
/// surviving candidate count yields every survivor. `par` is the worker
/// count, as for [`execute_candidate_scores_live`]; the ranking is
/// bit-identical at every count.
pub fn execute_topn_live<B: ScoringBackend + ?Sized>(
    backend: &B,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    live: &[u32],
    req: &TopNRequest,
    par: Parallelism,
) -> Result<Vec<(u32, f64)>, RequestError> {
    let catalog = catalog.ok_or(RequestError::MissingCatalog)?;
    let template = validate_topn(catalog, req)?;
    let mut scratch = TOPN_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));

    fill_excluded(seen, live, req, &mut scratch.excluded);

    // Indexed retrieval: only whole-catalogue requests are eligible —
    // an explicit candidate list already *is* a (usually small)
    // candidate set, and scanning it exactly is both cheaper and what
    // the request's order-sensitive semantics require.
    let indexed = if req.candidates.is_none() && req.strategy != Some(RetrievalStrategy::Exact) {
        let nprobe = match req.strategy {
            Some(RetrievalStrategy::Ivf { nprobe }) => nprobe,
            _ => None,
        };
        backend.select_top_n_indexed(catalog, template, req.n, nprobe, &scratch.excluded, par)
    } else {
        None
    };
    let value = match indexed {
        Some(value) => value,
        None => {
            fill_candidates(catalog, &scratch.excluded, req, &mut scratch.candidates);
            backend.select_top_n(catalog, template, &scratch.candidates, req.n, par)
        }
    };

    TOPN_SCRATCH.with(|s| *s.borrow_mut() = scratch);
    Ok(value)
}

/// Fans a [`BatchRequest`] across the pool, [`standalone_par`] workers
/// wide. Each sub-request validates and fails independently and runs
/// with [`NESTED_PAR`] (the batch itself is the fan-out). `live` is a
/// point-in-time copy of the server's overlay table (`None` for none),
/// consulted per sub-request user under the same `exclude_seen`
/// semantics as the snapshot seen sets.
pub fn execute_batch_live<B: ScoringBackend + Sync + ?Sized>(
    backend: &B,
    schema: &Schema,
    catalog: Option<&Catalog>,
    seen: Option<&SeenItems>,
    live: Option<&SeenItems>,
    req: &BatchRequest,
) -> Vec<Result<Reply, RequestError>> {
    gmlfm_par::par_map(standalone_par(), &req.requests, |request| match request {
        Request::Score(score) => execute_score(backend, schema, catalog, score).map(Reply::Score),
        Request::TopN(topn) => {
            let user_live = live.map(|l| l.items(topn.user)).unwrap_or(&[]);
            execute_topn_live(backend, catalog, seen, user_live, topn, NESTED_PAR).map(Reply::TopN)
        }
    })
}

/// Resolves a user id to its feature template, or the typed error. The
/// returned slice is the *evidence* that the user is in range — passing
/// it (rather than the raw id) downstream means the scoring paths never
/// need a second, panicking lookup.
fn user_template(catalog: &Catalog, user: u32) -> Result<&[u32], RequestError> {
    catalog
        .template(user)
        .ok_or(RequestError::UnknownUser { user, n_users: catalog.n_users() })
}

/// Resolves an item id to its feature group, or the typed error — the
/// item-side counterpart of [`user_template`].
fn item_group(catalog: &Catalog, item: u32) -> Result<&[u32], RequestError> {
    catalog
        .item_features(item)
        .ok_or(RequestError::UnknownItem { item, n_items: catalog.n_items() })
}

fn check_item(catalog: &Catalog, item: u32) -> Result<(), RequestError> {
    if (item as usize) < catalog.n_items() {
        Ok(())
    } else {
        Err(RequestError::UnknownItem { item, n_items: catalog.n_items() })
    }
}
