//! Grid description files.
//!
//! These are the "small number of simple configuration files" IbisDeploy is
//! driven by. The JSON schema is kept close to what a user would actually
//! write: resources with locations, middleware lists, node counts and
//! optional GPUs; links with latency and bandwidth. Parsing goes through
//! the self-contained [`crate::json`] module and reports malformed input
//! with a field path instead of panicking.

use crate::json::{self, Value};
use std::fmt;

/// Why a descriptor failed to parse or validate.
#[derive(Clone, Debug, PartialEq)]
pub enum DescriptorError {
    /// The input was not valid JSON.
    Syntax(json::JsonError),
    /// The JSON was well-formed but did not match the schema.
    Schema {
        /// Where in the document, e.g. `resources[1].gpus[0].gflops`.
        path: String,
        /// What was wrong there.
        message: String,
    },
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptorError::Syntax(e) => write!(f, "{e}"),
            DescriptorError::Schema { path, message } => {
                write!(f, "invalid descriptor at `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

fn schema_err<T>(path: &str, message: impl Into<String>) -> Result<T, DescriptorError> {
    Err(DescriptorError::Schema { path: path.to_string(), message: message.into() })
}

/// Fetch a required field.
fn required<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a Value, DescriptorError> {
    match v.get(key) {
        Some(f) => Ok(f),
        None => schema_err(path, format!("missing required field `{key}`")),
    }
}

fn get_string(v: &Value, path: &str, key: &str) -> Result<String, DescriptorError> {
    let f = required(v, path, key)?;
    match f.as_str() {
        Some(s) => Ok(s.to_string()),
        None => schema_err(
            &format!("{path}.{key}"),
            format!("expected a string, found {}", f.type_name()),
        ),
    }
}

fn get_string_or(
    v: &Value,
    path: &str,
    key: &str,
    default: &str,
) -> Result<String, DescriptorError> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(f) => match f.as_str() {
            Some(s) => Ok(s.to_string()),
            None => schema_err(
                &format!("{path}.{key}"),
                format!("expected a string, found {}", f.type_name()),
            ),
        },
    }
}

fn get_f64(v: &Value, path: &str, key: &str) -> Result<f64, DescriptorError> {
    let f = required(v, path, key)?;
    match f.as_f64() {
        Some(n) if n.is_finite() => Ok(n),
        Some(_) => schema_err(&format!("{path}.{key}"), "number must be finite"),
        None => schema_err(
            &format!("{path}.{key}"),
            format!("expected a number, found {}", f.type_name()),
        ),
    }
}

fn get_f64_or(v: &Value, path: &str, key: &str, default: f64) -> Result<f64, DescriptorError> {
    if v.get(key).is_none() {
        return Ok(default);
    }
    get_f64(v, path, key)
}

fn get_uint(v: &Value, path: &str, key: &str) -> Result<u64, DescriptorError> {
    let n = get_f64(v, path, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return schema_err(
            &format!("{path}.{key}"),
            format!("expected a non-negative integer, found {n}"),
        );
    }
    Ok(n as u64)
}

fn get_uint_or(v: &Value, path: &str, key: &str, default: u64) -> Result<u64, DescriptorError> {
    if v.get(key).is_none() {
        return Ok(default);
    }
    get_uint(v, path, key)
}

fn get_u32(v: &Value, path: &str, key: &str) -> Result<u32, DescriptorError> {
    let n = get_uint(v, path, key)?;
    u32::try_from(n).map_err(|_| DescriptorError::Schema {
        path: format!("{path}.{key}"),
        message: format!("{n} is out of range (max {})", u32::MAX),
    })
}

fn get_u32_or(v: &Value, path: &str, key: &str, default: u32) -> Result<u32, DescriptorError> {
    if v.get(key).is_none() {
        return Ok(default);
    }
    get_u32(v, path, key)
}

fn get_bool_or(v: &Value, path: &str, key: &str, default: bool) -> Result<bool, DescriptorError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => match f.as_bool() {
            Some(b) => Ok(b),
            None => schema_err(
                &format!("{path}.{key}"),
                format!("expected a boolean, found {}", f.type_name()),
            ),
        },
    }
}

fn as_object<'a>(v: &'a Value, path: &str) -> Result<&'a Value, DescriptorError> {
    if v.as_object().is_some() {
        Ok(v)
    } else {
        schema_err(path, format!("expected an object, found {}", v.type_name()))
    }
}

/// One GPU installed in every node of a resource.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuEntry {
    /// Marketing name (e.g. `"GeForce 9600GT"`).
    pub model: String,
    /// Sustained GFLOP/s on the target kernels.
    pub gflops: f64,
    /// Host↔device bandwidth, GiB/s.
    pub pcie_gibps: f64,
}

fn default_pcie() -> f64 {
    4.0
}

impl GpuEntry {
    fn from_value(v: &Value, path: &str) -> Result<GpuEntry, DescriptorError> {
        as_object(v, path)?;
        let gflops = get_f64(v, path, "gflops")?;
        if gflops <= 0.0 {
            return schema_err(&format!("{path}.gflops"), "GPU GFLOP/s must be positive");
        }
        Ok(GpuEntry {
            model: get_string(v, path, "model")?,
            gflops,
            pcie_gibps: get_f64_or(v, path, "pcie_gibps", default_pcie())?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("model".into(), Value::String(self.model.clone())),
            ("gflops".into(), Value::Number(self.gflops)),
            ("pcie_gibps".into(), Value::Number(self.pcie_gibps)),
        ])
    }
}

/// A resource in the user's grid file.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceEntry {
    /// Resource name, e.g. `"DAS-4 (VU)"`.
    pub name: String,
    /// Geographic label, e.g. `"Amsterdam, NL"`.
    pub location: String,
    /// Firewall policy: `"open"`, `"firewalled"`, `"nat"`, `"internal"`.
    pub firewall: String,
    /// Number of compute nodes (0 = client machine / stand-alone host).
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Sustained GFLOP/s per core.
    pub gflops_per_core: f64,
    /// GPUs per node (empty = none).
    pub gpus: Vec<GpuEntry>,
    /// Installed middleware: `"ssh"`, `"pbs"`, `"sge"`, `"globus"`,
    /// `"zorilla"`, `"local"`.
    pub middlewares: Vec<String>,
    /// Whether IbisDeploy should start a SmartSockets hub here.
    pub hub: bool,
    /// Is this the user's client machine (where the coupler runs)?
    pub client: bool,
    /// Intra-site fabric latency in microseconds.
    pub fabric_latency_us: u64,
    /// Intra-site fabric bandwidth in Gbit/s.
    pub fabric_gbps: f64,
    /// Memory per node in GiB.
    pub memory_gib: u32,
}

const FIREWALL_POLICIES: [&str; 4] = ["open", "firewalled", "nat", "internal"];

impl ResourceEntry {
    fn from_value(v: &Value, path: &str) -> Result<ResourceEntry, DescriptorError> {
        as_object(v, path)?;
        let firewall = get_string_or(v, path, "firewall", "open")?;
        if !FIREWALL_POLICIES.contains(&firewall.as_str()) {
            return schema_err(
                &format!("{path}.firewall"),
                format!(
                    "unknown firewall policy `{firewall}` (expected one of {})",
                    FIREWALL_POLICIES.join(", ")
                ),
            );
        }
        let gpus = match v.get("gpus") {
            None => Vec::new(),
            Some(g) => match g.as_array() {
                Some(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| GpuEntry::from_value(item, &format!("{path}.gpus[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?,
                None => {
                    return schema_err(
                        &format!("{path}.gpus"),
                        format!("expected an array, found {}", g.type_name()),
                    )
                }
            },
        };
        let middlewares = match v.get("middlewares") {
            None => Vec::new(),
            Some(m) => match m.as_array() {
                Some(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        item.as_str().map(str::to_string).ok_or_else(|| DescriptorError::Schema {
                            path: format!("{path}.middlewares[{i}]"),
                            message: format!("expected a string, found {}", item.type_name()),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => {
                    return schema_err(
                        &format!("{path}.middlewares"),
                        format!("expected an array, found {}", m.type_name()),
                    )
                }
            },
        };
        Ok(ResourceEntry {
            name: get_string(v, path, "name")?,
            location: get_string(v, path, "location")?,
            firewall,
            nodes: get_u32(v, path, "nodes")?,
            cores_per_node: get_u32_or(v, path, "cores_per_node", 4)?,
            gflops_per_core: get_f64_or(v, path, "gflops_per_core", 2.0)?,
            gpus,
            middlewares,
            hub: get_bool_or(v, path, "hub", true)?,
            client: get_bool_or(v, path, "client", false)?,
            fabric_latency_us: get_uint_or(v, path, "fabric_latency_us", 50)?,
            fabric_gbps: get_f64_or(v, path, "fabric_gbps", 10.0)?,
            memory_gib: get_u32_or(v, path, "memory_gib", 24)?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            ("location".into(), Value::String(self.location.clone())),
            ("firewall".into(), Value::String(self.firewall.clone())),
            ("nodes".into(), Value::Number(self.nodes as f64)),
            ("cores_per_node".into(), Value::Number(self.cores_per_node as f64)),
            ("gflops_per_core".into(), Value::Number(self.gflops_per_core)),
            ("gpus".into(), Value::Array(self.gpus.iter().map(GpuEntry::to_value).collect())),
            (
                "middlewares".into(),
                Value::Array(self.middlewares.iter().map(|m| Value::String(m.clone())).collect()),
            ),
            ("hub".into(), Value::Bool(self.hub)),
            ("client".into(), Value::Bool(self.client)),
            ("fabric_latency_us".into(), Value::Number(self.fabric_latency_us as f64)),
            ("fabric_gbps".into(), Value::Number(self.fabric_gbps)),
            ("memory_gib".into(), Value::Number(self.memory_gib as f64)),
        ])
    }
}

/// A wide-area link between two named resources.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkEntry {
    /// One endpoint (resource name).
    pub a: String,
    /// Other endpoint (resource name).
    pub b: String,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
    /// Bandwidth in Gbit/s.
    pub gbps: f64,
    /// Label, e.g. `"transatlantic 1G lightpath"`.
    pub label: String,
}

impl LinkEntry {
    fn from_value(v: &Value, path: &str) -> Result<LinkEntry, DescriptorError> {
        as_object(v, path)?;
        let latency_ms = get_f64(v, path, "latency_ms")?;
        if latency_ms < 0.0 {
            return schema_err(&format!("{path}.latency_ms"), "latency cannot be negative");
        }
        let gbps = get_f64(v, path, "gbps")?;
        if gbps <= 0.0 {
            return schema_err(&format!("{path}.gbps"), "bandwidth must be positive");
        }
        Ok(LinkEntry {
            a: get_string(v, path, "a")?,
            b: get_string(v, path, "b")?,
            latency_ms,
            gbps,
            label: get_string_or(v, path, "label", "")?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("a".into(), Value::String(self.a.clone())),
            ("b".into(), Value::String(self.b.clone())),
            ("latency_ms".into(), Value::Number(self.latency_ms)),
            ("gbps".into(), Value::Number(self.gbps)),
            ("label".into(), Value::String(self.label.clone())),
        ])
    }
}

/// The user's grid file: everything they have access to.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct GridDescription {
    /// Resources.
    pub resources: Vec<ResourceEntry>,
    /// Wide-area links.
    pub links: Vec<LinkEntry>,
}

impl GridDescription {
    /// Parse from JSON and validate cross-references (duplicate resource
    /// names, links to unknown resources, self-links).
    pub fn from_json(s: &str) -> Result<GridDescription, DescriptorError> {
        let root = json::parse(s).map_err(DescriptorError::Syntax)?;
        as_object(&root, "$")?;
        let resources = match required(&root, "$", "resources")?.as_array() {
            Some(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| ResourceEntry::from_value(item, &format!("resources[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
            None => return schema_err("resources", "expected an array"),
        };
        let links = match root.get("links") {
            None => Vec::new(),
            Some(l) => match l.as_array() {
                Some(items) => items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| LinkEntry::from_value(item, &format!("links[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?,
                None => return schema_err("links", "expected an array"),
            },
        };
        let grid = GridDescription { resources, links };
        grid.validate()?;
        Ok(grid)
    }

    /// Cross-reference checks shared by [`Self::from_json`] and callers
    /// constructing descriptions programmatically.
    pub fn validate(&self) -> Result<(), DescriptorError> {
        if self.resources.is_empty() {
            return schema_err("resources", "a grid needs at least one resource");
        }
        for (i, r) in self.resources.iter().enumerate() {
            if r.name.is_empty() {
                return schema_err(&format!("resources[{i}].name"), "name cannot be empty");
            }
            if self.resources[..i].iter().any(|other| other.name == r.name) {
                return schema_err(
                    &format!("resources[{i}].name"),
                    format!("duplicate resource name `{}`", r.name),
                );
            }
            // Programmatically built descriptions get the same numeric
            // sanity guarantees as parsed ones.
            if !r.gflops_per_core.is_finite() || r.gflops_per_core <= 0.0 {
                return schema_err(
                    &format!("resources[{i}].gflops_per_core"),
                    "must be a positive finite number",
                );
            }
            if !r.fabric_gbps.is_finite() || r.fabric_gbps <= 0.0 {
                return schema_err(
                    &format!("resources[{i}].fabric_gbps"),
                    "must be a positive finite number",
                );
            }
            for (j, g) in r.gpus.iter().enumerate() {
                if !g.gflops.is_finite() || g.gflops <= 0.0 {
                    return schema_err(
                        &format!("resources[{i}].gpus[{j}].gflops"),
                        "must be a positive finite number",
                    );
                }
            }
        }
        if self.resources.iter().filter(|r| r.client).count() > 1 {
            return schema_err("resources", "at most one resource may be marked `client`");
        }
        for (i, l) in self.links.iter().enumerate() {
            for end in [&l.a, &l.b] {
                if self.resource(end).is_none() {
                    return schema_err(
                        &format!("links[{i}]"),
                        format!(
                            "link endpoint `{end}` does not name a resource (known: {})",
                            self.resources
                                .iter()
                                .map(|r| r.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    );
                }
            }
            if l.a == l.b {
                return schema_err(
                    &format!("links[{i}]"),
                    format!("link connects `{}` to itself", l.a),
                );
            }
            if !l.latency_ms.is_finite() || l.latency_ms < 0.0 {
                return schema_err(
                    &format!("links[{i}].latency_ms"),
                    "must be a non-negative finite number",
                );
            }
            if !l.gbps.is_finite() || l.gbps <= 0.0 {
                return schema_err(&format!("links[{i}].gbps"), "must be a positive finite number");
            }
        }
        Ok(())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            (
                "resources".into(),
                Value::Array(self.resources.iter().map(ResourceEntry::to_value).collect()),
            ),
            ("links".into(), Value::Array(self.links.iter().map(LinkEntry::to_value).collect())),
        ])
        .to_pretty()
    }

    /// The client entry (the machine the user sits at).
    pub fn client(&self) -> Option<&ResourceEntry> {
        self.resources.iter().find(|r| r.client)
    }

    /// Look up a resource by name.
    pub fn resource(&self, name: &str) -> Option<&ResourceEntry> {
        self.resources.iter().find(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "resources": [
            {"name": "laptop", "location": "Seattle, WA, USA", "nodes": 0,
             "client": true, "middlewares": ["local"]},
            {"name": "DAS-4 (VU)", "location": "Amsterdam, NL",
             "nodes": 8, "cores_per_node": 8,
             "middlewares": ["pbs", "ssh"], "firewall": "firewalled",
             "gpus": [{"model": "GTX480", "gflops": 150.0}]}
        ],
        "links": [
            {"a": "laptop", "b": "DAS-4 (VU)", "latency_ms": 45.0,
             "gbps": 1.0, "label": "transatlantic 1G lightpath"}
        ]
    }"#;

    /// The grid used by `tests/jungle_stack.rs`.
    const JUNGLE_GRID: &str = r#"{
        "resources": [
            {"name": "laptop", "location": "Seattle, WA, USA", "nodes": 1,
             "client": true, "middlewares": ["local"], "firewall": "firewalled"},
            {"name": "VU", "location": "Amsterdam, NL", "nodes": 4,
             "middlewares": ["pbs", "ssh"], "firewall": "open"},
            {"name": "LGM", "location": "Leiden, NL", "nodes": 2,
             "middlewares": ["sge"], "firewall": "nat",
             "gpus": [{"model": "Tesla C2050", "gflops": 300.0}]}
        ],
        "links": [
            {"a": "laptop", "b": "VU", "latency_ms": 45.0, "gbps": 1.0,
             "label": "transatlantic"},
            {"a": "VU", "b": "LGM", "latency_ms": 1.0, "gbps": 10.0}
        ]
    }"#;

    #[test]
    fn parse_sample_grid() {
        let g = GridDescription::from_json(SAMPLE).unwrap();
        assert_eq!(g.resources.len(), 2);
        assert_eq!(g.client().unwrap().name, "laptop");
        let das = g.resource("DAS-4 (VU)").unwrap();
        assert_eq!(das.nodes, 8);
        assert_eq!(das.gpus[0].model, "GTX480");
        assert_eq!(das.gpus[0].pcie_gibps, 4.0); // default applied
        assert!(das.hub); // default applied
        assert_eq!(g.links[0].label, "transatlantic 1G lightpath");
    }

    #[test]
    fn json_round_trip() {
        let g = GridDescription::from_json(SAMPLE).unwrap();
        let again = GridDescription::from_json(&g.to_json()).unwrap();
        assert_eq!(g, again);
    }

    #[test]
    fn jungle_stack_grid_parses() {
        let g = GridDescription::from_json(JUNGLE_GRID).unwrap();
        assert_eq!(g.resources.len(), 3);
        assert_eq!(g.links.len(), 2);
        assert_eq!(g.resource("LGM").unwrap().gpus[0].gflops, 300.0);
    }

    #[test]
    fn malformed_json_reports_position_not_panic() {
        let err = GridDescription::from_json("{\"resources\": [{\"name\": }]}").unwrap_err();
        match err {
            DescriptorError::Syntax(e) => assert!(e.to_string().contains("line 1"), "{e}"),
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn missing_required_field_names_the_path() {
        // second resource lacks `location`
        let bad = r#"{"resources": [
            {"name": "a", "location": "x", "nodes": 1},
            {"name": "b", "nodes": 2}
        ]}"#;
        let err = GridDescription::from_json(bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("resources[1]"), "{msg}");
        assert!(msg.contains("location"), "{msg}");
    }

    #[test]
    fn wrong_type_is_rejected_with_both_types_named() {
        let bad = r#"{"resources": [{"name": "a", "location": "x", "nodes": "many"}]}"#;
        let msg = GridDescription::from_json(bad).unwrap_err().to_string();
        assert!(msg.contains("nodes"), "{msg}");
        assert!(msg.contains("number") && msg.contains("string"), "{msg}");
    }

    #[test]
    fn link_to_unknown_resource_is_rejected() {
        let bad = r#"{
            "resources": [{"name": "a", "location": "x", "nodes": 1}],
            "links": [{"a": "a", "b": "ghost", "latency_ms": 1.0, "gbps": 1.0}]
        }"#;
        let msg = GridDescription::from_json(bad).unwrap_err().to_string();
        assert!(msg.contains("links[0]"), "{msg}");
        assert!(msg.contains("ghost"), "{msg}");
    }

    #[test]
    fn self_link_and_duplicate_names_are_rejected() {
        let dup = r#"{"resources": [
            {"name": "a", "location": "x", "nodes": 1},
            {"name": "a", "location": "y", "nodes": 2}
        ]}"#;
        assert!(GridDescription::from_json(dup).unwrap_err().to_string().contains("duplicate"));
        let selfy = r#"{
            "resources": [{"name": "a", "location": "x", "nodes": 1}],
            "links": [{"a": "a", "b": "a", "latency_ms": 1.0, "gbps": 1.0}]
        }"#;
        assert!(GridDescription::from_json(selfy).unwrap_err().to_string().contains("itself"));
    }

    #[test]
    fn empty_resources_are_rejected() {
        let msg = GridDescription::from_json(r#"{"resources": []}"#).unwrap_err().to_string();
        assert!(msg.contains("at least one resource"), "{msg}");
    }

    #[test]
    fn out_of_range_counts_are_rejected_not_truncated() {
        // 2^32 must not wrap to nodes == 0
        let bad = r#"{"resources": [{"name": "a", "location": "x", "nodes": 4294967296}]}"#;
        let msg = GridDescription::from_json(bad).unwrap_err().to_string();
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn programmatic_non_finite_values_fail_validate() {
        let mut g = GridDescription::from_json(JUNGLE_GRID).unwrap();
        g.links[0].gbps = f64::NAN;
        let msg = g.validate().unwrap_err().to_string();
        assert!(msg.contains("links[0].gbps"), "{msg}");
    }

    #[test]
    fn negative_bandwidth_and_fractional_nodes_are_rejected() {
        let neg = r#"{
            "resources": [
                {"name": "a", "location": "x", "nodes": 1},
                {"name": "b", "location": "y", "nodes": 1}
            ],
            "links": [{"a": "a", "b": "b", "latency_ms": 1.0, "gbps": -2.0}]
        }"#;
        assert!(GridDescription::from_json(neg).unwrap_err().to_string().contains("gbps"));
        let frac = r#"{"resources": [{"name": "a", "location": "x", "nodes": 1.5}]}"#;
        assert!(GridDescription::from_json(frac).unwrap_err().to_string().contains("integer"));
    }
}
