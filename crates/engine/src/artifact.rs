//! The versioned, servable artifact: spec + schema + frozen matrices
//! (+ optional serving catalog) in one JSON file.
//!
//! An artifact is everything a serving process needs and nothing it does
//! not: no autograd tape, no optimizer state, no training data. Loading
//! one (`Engine::load`) reconstructs a [`gmlfm_serve::FrozenModel`]
//! directly from the stored matrices — the training crates are never
//! touched — and the embedded [`Catalog`] (per-user templates + per-item
//! feature groups) makes `top_n` servable straight off the file.
//!
//! The `format_version` field is checked *before* the body is decoded,
//! so a bumped or unknown version fails with
//! [`EngineError::UnsupportedVersion`] rather than a parse panic deep in
//! some field.
//!
//! ## Format history
//!
//! * **v1** — spec + schema + frozen matrices + optional catalog.
//! * **v2** — adds the optional per-user `seen` sets
//!   ([`gmlfm_service::SeenItems`]) behind the serving API's default
//!   seen-item exclusion. v1 artifacts still load (the `seen` field
//!   decodes as absent, so top-n requests simply exclude nothing).
//! * **v3** — adds the optional IVF retrieval `index`
//!   ([`gmlfm_serve::IvfIndex`]: per-cluster φ-means, radii and item
//!   assignments), so load → serve needs no index rebuild. v1/v2
//!   artifacts still load (the `index` field decodes as absent, so
//!   top-n requests serve through the exact sharded-heap path).
//! * **v4** — the body is v3's. Older v4 writers added an optional
//!   `precision` member (`"f64"` / `"f32"` / `"i8"`) naming a narrowed
//!   scan table to build on load. Those tables are retired: the writer
//!   no longer emits the member, and the reader ignores it whatever its
//!   value, so every v4 artifact serves the exact `f64` scores.
//!   v1–v3 artifacts still load unchanged.

use crate::error::EngineError;
use crate::spec::{distance_from_name, distance_name, ModelSpec};
use gmlfm_data::schema::Field;
use gmlfm_data::{FieldKind, Schema};
use gmlfm_serve::{FrozenModel, IvfIndex, SecondOrder};
use gmlfm_service::{ModelSnapshot, SeenItems};
use gmlfm_tensor::Matrix;
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// The artifact format version this build writes.
pub const ARTIFACT_VERSION: u32 = 4;

/// The oldest artifact format version this build still reads.
pub const MIN_ARTIFACT_VERSION: u32 = 1;

/// A dense matrix in serialisable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl MatrixRepr {
    fn from_matrix(m: &Matrix) -> Self {
        Self { rows: m.rows(), cols: m.cols(), data: m.as_slice().to_vec() }
    }

    fn into_matrix(self) -> Result<Matrix, EngineError> {
        if self.data.len() != self.rows * self.cols {
            return Err(EngineError::BadArtifact(format!(
                "matrix {}x{} carries {} values",
                self.rows,
                self.cols,
                self.data.len()
            )));
        }
        Ok(Matrix::from_vec(self.rows, self.cols, self.data))
    }
}

/// Serialisable form of [`SecondOrder`], tagged by `kind`.
#[derive(Debug, Clone)]
pub(crate) enum SecondRepr {
    Dot,
    Metric { v_hat: MatrixRepr, q: Vec<f64>, h: Option<Vec<f64>>, distance: String },
    Translated { v_trans: MatrixRepr },
}

impl Serialize for SecondRepr {
    fn serialize_json(&self, out: &mut String) {
        match self {
            SecondRepr::Dot => out.push_str("{\"kind\":\"dot\"}"),
            SecondRepr::Metric { v_hat, q, h, distance } => {
                out.push_str("{\"kind\":\"metric\",\"v_hat\":");
                v_hat.serialize_json(out);
                out.push_str(",\"q\":");
                q.serialize_json(out);
                out.push_str(",\"h\":");
                h.serialize_json(out);
                out.push_str(",\"distance\":");
                distance.serialize_json(out);
                out.push('}');
            }
            SecondRepr::Translated { v_trans } => {
                out.push_str("{\"kind\":\"translated\",\"v_trans\":");
                v_trans.serialize_json(out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for SecondRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        let kind: String = json::field(v, "kind")?;
        match kind.as_str() {
            "dot" => Ok(SecondRepr::Dot),
            "metric" => Ok(SecondRepr::Metric {
                v_hat: json::field(v, "v_hat")?,
                q: json::field(v, "q")?,
                h: json::field(v, "h")?,
                distance: json::field(v, "distance")?,
            }),
            "translated" => Ok(SecondRepr::Translated { v_trans: json::field(v, "v_trans")? }),
            other => Err(json::Error::new(format!("unknown second-order kind '{other}'"))),
        }
    }
}

/// Serialisable form of a [`FrozenModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FrozenRepr {
    w0: f64,
    w: Vec<f64>,
    v: MatrixRepr,
    second: SecondRepr,
}

impl FrozenRepr {
    pub(crate) fn from_frozen(frozen: &FrozenModel) -> Self {
        let second = match frozen.second_order_kind() {
            SecondOrder::Dot => SecondRepr::Dot,
            SecondOrder::Metric { hat, h, distance } => SecondRepr::Metric {
                // The artifact keeps V̂ and q as separate fields (stable
                // format); the packed serving layout is rebuilt on load.
                v_hat: MatrixRepr::from_matrix(&hat.v_hat_matrix()),
                q: hat.q_vec(),
                h: h.clone(),
                distance: distance_name(*distance).to_string(),
            },
            SecondOrder::Translated { v_trans } => {
                SecondRepr::Translated { v_trans: MatrixRepr::from_matrix(v_trans) }
            }
        };
        Self {
            w0: frozen.bias(),
            w: frozen.linear_weights().to_vec(),
            v: MatrixRepr::from_matrix(frozen.factors()),
            second,
        }
    }

    pub(crate) fn into_frozen(self) -> Result<FrozenModel, EngineError> {
        let v = self.v.into_matrix()?;
        let (n, k) = v.shape();
        if self.w.len() != n {
            return Err(EngineError::BadArtifact(format!(
                "{} linear weights for {n} features",
                self.w.len()
            )));
        }
        let second = match self.second {
            SecondRepr::Dot => SecondOrder::Dot,
            SecondRepr::Metric { v_hat, q, h, distance } => {
                let v_hat = v_hat.into_matrix()?;
                if v_hat.shape() != (n, k) {
                    return Err(EngineError::BadArtifact("V-hat shape differs from V".into()));
                }
                if q.len() != n {
                    return Err(EngineError::BadArtifact(format!("{} norms for {n} features", q.len())));
                }
                if let Some(h) = &h {
                    if h.len() != k {
                        return Err(EngineError::BadArtifact(format!(
                            "{} transformation weights for k={k}",
                            h.len()
                        )));
                    }
                }
                let distance = distance_from_name(&distance)?;
                SecondOrder::metric(v_hat, q, h, distance)
            }
            SecondRepr::Translated { v_trans } => {
                let v_trans = v_trans.into_matrix()?;
                if v_trans.shape() != (n, k) {
                    return Err(EngineError::BadArtifact("translation table shape differs from V".into()));
                }
                SecondOrder::Translated { v_trans }
            }
        };
        Ok(FrozenModel::from_parts(self.w0, self.w, v, second))
    }
}

/// One schema field in serialisable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FieldRepr {
    name: String,
    cardinality: usize,
    kind: String,
}

/// Serialisable form of a [`Schema`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SchemaRepr {
    fields: Vec<FieldRepr>,
}

fn kind_name(kind: FieldKind) -> &'static str {
    match kind {
        FieldKind::User => "user",
        FieldKind::Item => "item",
        FieldKind::UserAttr => "user_attr",
        FieldKind::Category => "category",
        FieldKind::Condition => "condition",
        FieldKind::Shipping => "shipping",
        FieldKind::ItemAttr => "item_attr",
    }
}

fn kind_from_name(name: &str) -> Result<FieldKind, EngineError> {
    match name {
        "user" => Ok(FieldKind::User),
        "item" => Ok(FieldKind::Item),
        "user_attr" => Ok(FieldKind::UserAttr),
        "category" => Ok(FieldKind::Category),
        "condition" => Ok(FieldKind::Condition),
        "shipping" => Ok(FieldKind::Shipping),
        "item_attr" => Ok(FieldKind::ItemAttr),
        other => Err(EngineError::BadArtifact(format!("unknown field kind '{other}'"))),
    }
}

impl SchemaRepr {
    pub(crate) fn from_schema(schema: &Schema) -> Self {
        Self {
            fields: schema
                .fields()
                .iter()
                .map(|f| FieldRepr {
                    name: f.name.clone(),
                    cardinality: f.cardinality,
                    kind: kind_name(f.kind).to_string(),
                })
                .collect(),
        }
    }

    pub(crate) fn into_schema(self) -> Result<Schema, EngineError> {
        let mut fields = Vec::with_capacity(self.fields.len());
        for f in self.fields {
            fields.push(Field { name: f.name, cardinality: f.cardinality, kind: kind_from_name(&f.kind)? });
        }
        Ok(Schema::new(fields))
    }
}

/// Serialisable form of an [`IvfIndex`] (v3+): the per-cluster means
/// plus the per-item cluster assignment and deviation-norm vectors,
/// from which the member lists and cluster radii are rebuilt on load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct IndexRepr {
    kind: String,
    k: usize,
    phi_mean: MatrixRepr,
    item_norms: Vec<f64>,
    assignments: Vec<u32>,
    default_nprobe: usize,
    min_candidates: usize,
}

impl IndexRepr {
    pub(crate) fn from_index(index: &IvfIndex) -> Self {
        Self {
            kind: index.kind().name().to_string(),
            k: index.k(),
            phi_mean: MatrixRepr::from_matrix(index.phi_mean()),
            item_norms: index.item_norms(),
            assignments: index.assignments(),
            default_nprobe: index.default_nprobe(),
            min_candidates: index.min_candidates(),
        }
    }

    pub(crate) fn into_index(self) -> Result<IvfIndex, EngineError> {
        let phi_mean = self.phi_mean.into_matrix()?;
        IvfIndex::from_parts(
            &self.kind,
            self.k,
            phi_mean,
            self.item_norms,
            self.assignments,
            self.default_nprobe,
            self.min_candidates,
        )
        .map_err(EngineError::BadArtifact)
    }
}

/// The serving catalog (re-exported from [`gmlfm_service`], where the
/// request path that consumes it lives).
pub use gmlfm_service::Catalog;

/// A saved, versioned, servable model: spec + schema + frozen matrices
/// (+ optional catalog and seen sets) in one JSON document.
#[derive(Debug, Clone, Serialize)]
pub struct Artifact {
    /// Format version; checked before the body is decoded.
    pub format_version: u32,
    /// What the model is (restores with the artifact).
    pub spec: ModelSpec,
    pub(crate) schema: SchemaRepr,
    pub(crate) frozen: FrozenRepr,
    /// Serving catalog, when the recommender was fit from a dataset.
    pub catalog: Option<Catalog>,
    /// Per-user training-time seen sets (v2+), backing the serving API's
    /// default seen-item exclusion.
    pub seen: Option<SeenItems>,
    /// IVF retrieval index (v3+), rebuilt into a [`IvfIndex`] on load.
    pub(crate) index: Option<IndexRepr>,
}

// Hand-written (the derive requires every key): the `seen` field did not
// exist before format version 2, nor `index` before 3, so both decode
// as `None` when absent. Unknown members, the retired v4 `precision`
// among them, are ignored.
impl Deserialize for Artifact {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        fn optional<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, json::Error> {
            match v.get(name) {
                Some(value) => Option::<T>::deserialize_json(value)
                    .map_err(|e| json::Error::new(format!("field '{name}': {e}"))),
                None => Ok(None),
            }
        }
        Ok(Self {
            format_version: json::field(v, "format_version")?,
            spec: json::field(v, "spec")?,
            schema: json::field(v, "schema")?,
            frozen: json::field(v, "frozen")?,
            catalog: json::field(v, "catalog")?,
            seen: optional(v, "seen")?,
            index: optional(v, "index")?,
        })
    }
}

impl Artifact {
    /// Assembles an artifact from a frozen model and its provenance.
    /// [`crate::Recommender::artifact`] is the usual entry point; this
    /// constructor serves custom pipelines that freeze models themselves.
    pub fn new(
        spec: ModelSpec,
        schema: &Schema,
        frozen: &FrozenModel,
        catalog: Option<Catalog>,
        seen: Option<SeenItems>,
        index: Option<&IvfIndex>,
    ) -> Self {
        Self {
            format_version: ARTIFACT_VERSION,
            spec,
            schema: SchemaRepr::from_schema(schema),
            frozen: FrozenRepr::from_frozen(frozen),
            catalog,
            seen,
            index: index.map(IndexRepr::from_index),
        }
    }

    /// Decodes the artifact body into the servable [`ModelSnapshot`] the
    /// serving API consumes — what [`crate::Engine::load`] wraps, and
    /// what a serving process feeds to
    /// [`gmlfm_service::ModelServer::swap`] for a zero-downtime model
    /// refresh.
    pub fn into_snapshot(self) -> Result<ModelSnapshot, EngineError> {
        Ok(ModelSnapshot {
            schema: self.schema.into_schema()?,
            frozen: self.frozen.into_frozen()?,
            catalog: self.catalog,
            seen: self.seen,
            index: self.index.map(IndexRepr::into_index).transpose()?,
        })
    }

    /// Serialises to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("artifact serialisation is infallible")
    }

    /// Parses an artifact, validating `format_version` before decoding
    /// the body.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let value = json::parse(text).map_err(EngineError::Json)?;
        let raw = value
            .get("format_version")
            .and_then(Value::as_f64)
            .ok_or_else(|| EngineError::BadArtifact("missing format_version".into()))?;
        if raw.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&raw) {
            return Err(EngineError::BadArtifact(format!("format_version {raw} is not a u32")));
        }
        let version = raw as u32;
        if !(MIN_ARTIFACT_VERSION..=ARTIFACT_VERSION).contains(&version) {
            return Err(EngineError::UnsupportedVersion { found: version, supported: ARTIFACT_VERSION });
        }
        Artifact::deserialize_json(&value).map_err(EngineError::Json)
    }

    /// Writes the artifact as JSON, creating parent directories.
    ///
    /// The write is **crash-safe**: the bytes go to a sibling temp file,
    /// are fsynced, and only then atomically renamed over `path`. A
    /// crash or power loss mid-save leaves either the old artifact or
    /// the new one — never a truncated or interleaved file — so a
    /// serving process can always [`Artifact::load`] whatever is at
    /// `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        // Temp file in the same directory, so the rename below cannot
        // cross filesystems (cross-device renames are not atomic). The
        // pid keeps concurrent savers from clobbering each other's
        // partial writes; last rename wins, each one atomic.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            use std::io::Write;
            file.write_all(self.to_json().as_bytes())?;
            // Flush file contents to stable storage before the rename
            // makes them reachable under `path`.
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            // Best-effort cleanup; the failure we report is the write's.
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Reads an artifact saved by [`Artifact::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        Self::from_json(&fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumped_version_is_a_typed_error() {
        let err = Artifact::from_json("{\"format_version\": 99}").unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedVersion { found: 99, supported: ARTIFACT_VERSION }));
    }

    #[test]
    fn supported_version_range_gates_before_body_decode() {
        // v0 never existed and the next future version is unknown: both
        // rejected at the gate. Every version in the supported range
        // passes the gate — the error (if any) comes from the missing
        // body fields, proving decode was attempted.
        for version in [0u32, ARTIFACT_VERSION + 1] {
            let err = Artifact::from_json(&format!("{{\"format_version\": {version}}}")).unwrap_err();
            assert!(
                matches!(err, EngineError::UnsupportedVersion { found, supported: ARTIFACT_VERSION } if found == version),
                "{err}"
            );
        }
        for version in MIN_ARTIFACT_VERSION..=ARTIFACT_VERSION {
            let err = Artifact::from_json(&format!("{{\"format_version\": {version}}}")).unwrap_err();
            assert!(matches!(err, EngineError::Json(_)), "v{version}: {err}");
        }
    }

    #[test]
    fn missing_version_is_a_typed_error() {
        let err = Artifact::from_json("{\"spec\": {}}").unwrap_err();
        assert!(matches!(err, EngineError::BadArtifact(_)));
    }

    #[test]
    fn fractional_version_is_rejected_not_truncated() {
        // 1.5 must not be truncated to the supported version 1 in the
        // error report.
        let err = Artifact::from_json("{\"format_version\": 1.5}").unwrap_err();
        assert!(matches!(err, EngineError::BadArtifact(_)), "{err}");
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        let err = Artifact::from_json("{not json").unwrap_err();
        assert!(matches!(err, EngineError::Json(_)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Artifact::load("/nonexistent/dir/artifact.json").unwrap_err();
        assert!(matches!(err, EngineError::Io(_)));
    }

    #[test]
    fn schema_round_trips() {
        let schema = Schema::from_specs(&[
            ("user", 7, FieldKind::User),
            ("item", 9, FieldKind::Item),
            ("cat", 3, FieldKind::Category),
        ]);
        let repr = SchemaRepr::from_schema(&schema);
        let json = serde_json::to_string(&repr).unwrap();
        let back: SchemaRepr = serde_json::from_str(&json).unwrap();
        let restored = back.into_schema().unwrap();
        assert_eq!(restored.total_dim(), schema.total_dim());
        assert_eq!(restored.fields()[2].kind, FieldKind::Category);
        assert_eq!(restored.fields()[1].name, "item");
    }
}
