//! On-disk substrate cache.
//!
//! Building a synthetic Internet has two unequal halves: topology
//! generation (seeded RNG walk over [`InternetConfig`], cheap) and
//! control-plane computation (BGP decision process plus the hot-potato
//! external-route scan, the dominant cost at thousandfold scale). The
//! cache persists only the expensive half — the [`ControlPlane`]'s
//! BGP tables and packed external routes, exactly the
//! [`ControlPlane::cache_payload`] bytes — and regenerates the
//! topology deterministically on every load.
//!
//! # File format (version 1)
//!
//! ```text
//! magic      b"WHSC"                      4 bytes
//! version    u32                          4 bytes
//! config     u64 config checksum          8 bytes
//! payload    length-prefixed Vec<u8>      8 + n bytes
//! checksum   u64 FNV-1a of payload        8 bytes
//! ```
//!
//! All integers little-endian via [`wormhole_net::wire`]. The config
//! checksum covers every [`InternetConfig`] field including the full
//! persona list, so any change to the generator inputs produces a
//! different checksum (and, since files are named by checksum, a
//! different file). A file whose recorded config checksum disagrees
//! with the requesting config is *stale*; a file whose payload bytes
//! fail their own checksum is *corrupt*. Both are typed errors, never
//! silent rebuilds — callers decide whether to fall back.

use crate::internet::{generate_topology, Internet, InternetConfig};
use crate::persona::{AsPersona, PopMesh};
use std::path::{Path, PathBuf};
use wormhole_net::wire::{checksum, Reader, Wire, WireError};
use wormhole_net::{CachePayloadError, ControlPlane, LdpPolicy, Vendor};

const MAGIC: [u8; 4] = *b"WHSC";
const VERSION: u32 = 1;

/// Why a cache file could not be used.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem failure reading or writing the cache file.
    Io(std::io::Error),
    /// The file does not start with the `WHSC` magic.
    BadMagic,
    /// The file was written by an incompatible format version.
    Version(u32),
    /// The file's recorded config checksum disagrees with the config
    /// requesting it — the cache is stale.
    StaleConfig {
        /// Checksum of the requesting config.
        expected: u64,
        /// Checksum recorded in the file.
        found: u64,
    },
    /// The payload bytes fail their own checksum — the file is corrupt.
    CorruptPayload,
    /// The file framing did not decode.
    Decode(WireError),
    /// The payload decoded but the plane could not be restored over
    /// the regenerated topology.
    Payload(CachePayloadError),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "substrate cache i/o: {e}"),
            CacheError::BadMagic => write!(f, "substrate cache: bad magic (not a WHSC file)"),
            CacheError::Version(v) => {
                write!(f, "substrate cache: unsupported format version {v}")
            }
            CacheError::StaleConfig { expected, found } => write!(
                f,
                "substrate cache: stale (config checksum {found:#018x}, expected {expected:#018x})"
            ),
            CacheError::CorruptPayload => {
                write!(
                    f,
                    "substrate cache: payload checksum mismatch (corrupt file)"
                )
            }
            CacheError::Decode(e) => write!(f, "substrate cache framing: {e}"),
            CacheError::Payload(e) => write!(f, "substrate cache: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> CacheError {
        CacheError::Io(e)
    }
}

fn put_vendor(v: Vendor, out: &mut Vec<u8>) {
    let tag: u8 = match v {
        Vendor::CiscoIos => 0,
        Vendor::JuniperJunos => 1,
        Vendor::JuniperJunosE => 2,
        Vendor::BrocadeLinux => 3,
    };
    tag.put(out);
}

fn put_persona(p: &AsPersona, out: &mut Vec<u8>) {
    p.name.to_owned().put(out);
    p.asn.0.put(out);
    p.pops.put(out);
    p.edges_per_pop.put(out);
    match p.mesh {
        PopMesh::Chain => 0u8.put(out),
        PopMesh::Ring => 1u8.put(out),
        PopMesh::Chords(prob) => {
            2u8.put(out);
            prob.put(out);
        }
    }
    for mix in [p.edge_vendors, p.core_vendors] {
        mix.len().put(out);
        for &(v, w) in mix {
            put_vendor(v, out);
            w.put(out);
        }
    }
    p.mpls.put(out);
    p.propagate_share.put(out);
    p.uhp.put(out);
    match p.ldp_override {
        None => 0u8.put(out),
        Some(LdpPolicy::AllPrefixes) => 1u8.put(out),
        Some(LdpPolicy::LoopbackOnly) => 2u8.put(out),
        Some(LdpPolicy::None) => 3u8.put(out),
    }
    p.interpop_delay_ms.put(out);
}

/// Checksum over every [`InternetConfig`] field (including the full
/// persona list). Two configs generate the same Internet iff their
/// checksums agree; the cache file name and the stale check both key
/// on this value.
pub fn config_checksum(config: &InternetConfig) -> u64 {
    let mut bytes = Vec::new();
    // Version salt: bump VERSION to invalidate old checksums too.
    VERSION.put(&mut bytes);
    config.seed.put(&mut bytes);
    config.personas.len().put(&mut bytes);
    for p in &config.personas {
        put_persona(p, &mut bytes);
    }
    config.n_stubs.put(&mut bytes);
    config.n_vps.put(&mut bytes);
    config.peer_prob.put(&mut bytes);
    config.silent_share.put(&mut bytes);
    config.tier1.put(&mut bytes);
    checksum(&bytes)
}

/// The cache file path for `config` under `dir`:
/// `substrate-<config checksum>.whsc`.
pub fn cache_file(dir: &Path, config: &InternetConfig) -> PathBuf {
    dir.join(format!("substrate-{:016x}.whsc", config_checksum(config)))
}

/// Serializes `cp` for `config` into `path`, atomically (write to a
/// sibling temp file, then rename).
pub fn save(path: &Path, config: &InternetConfig, cp: &ControlPlane) -> Result<(), CacheError> {
    let payload = cp.cache_payload();
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(&MAGIC);
    VERSION.put(&mut out);
    config_checksum(config).put(&mut out);
    checksum(&payload).put(&mut out);
    payload.put(&mut out);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("whsc.tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates the cache file at `path`, returning the raw
/// plane payload. Checks magic, version, config checksum (stale
/// detection) and payload checksum (corruption detection) — but does
/// not touch a network, so workers can validate before generating.
pub fn read_payload(path: &Path, config: &InternetConfig) -> Result<Vec<u8>, CacheError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(CacheError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let version = u32::take(&mut r).map_err(CacheError::Decode)?;
    if version != VERSION {
        return Err(CacheError::Version(version));
    }
    let found = u64::take(&mut r).map_err(CacheError::Decode)?;
    let expected = config_checksum(config);
    if found != expected {
        return Err(CacheError::StaleConfig { expected, found });
    }
    let payload_sum = u64::take(&mut r).map_err(CacheError::Decode)?;
    let payload: Vec<u8> = Vec::take(&mut r).map_err(CacheError::Decode)?;
    if !r.is_empty() {
        return Err(CacheError::Decode(WireError::Corrupt("trailing bytes")));
    }
    if checksum(&payload) != payload_sum {
        return Err(CacheError::CorruptPayload);
    }
    Ok(payload)
}

/// Whether the generation was served from disk or computed cold.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Plane computed from scratch (and saved to the cache).
    Cold,
    /// Plane restored from a verified cache file.
    Warm,
}

/// Generates an Internet from `config`, restoring the control plane
/// from the cache under `dir` when a file for this config exists, and
/// computing + saving it otherwise. The topology itself is always
/// regenerated (deterministic and cheap). An existing-but-unusable
/// file (corrupt, stale, wrong version) is a typed error, not a
/// silent rebuild.
pub fn generate_cached(
    config: &InternetConfig,
    dir: &Path,
) -> Result<(Internet, CacheStatus), CacheError> {
    let path = cache_file(dir, config);
    let payload = if path.exists() {
        Some(read_payload(&path, config)?)
    } else {
        None
    };
    let topo = generate_topology(config);
    let (cp, status) = match payload {
        Some(p) => (
            ControlPlane::from_cache_payload(&topo.net, &p).map_err(CacheError::Payload)?,
            CacheStatus::Warm,
        ),
        None => {
            let cp = ControlPlane::build(&topo.net)
                .map_err(CachePayloadError::Assemble)
                .map_err(CacheError::Payload)?;
            save(&path, config, &cp)?;
            (cp, CacheStatus::Cold)
        }
    };
    Ok((
        Internet {
            net: topo.net,
            cp,
            vps: topo.vps,
            personas: config.personas.clone(),
            stub_asns: topo.stub_asns,
        },
        status,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wormhole-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checksum_is_sensitive_to_every_field() {
        let base = InternetConfig::small(7);
        let c0 = config_checksum(&base);
        assert_eq!(c0, config_checksum(&InternetConfig::small(7)));
        let mut seed = base.clone();
        seed.seed ^= 1;
        let mut stubs = base.clone();
        stubs.n_stubs += 1;
        let mut vps = base.clone();
        vps.n_vps -= 1;
        let mut peer = base.clone();
        peer.peer_prob *= 0.5;
        let mut silent = base.clone();
        silent.silent_share += 0.01;
        let mut tier = base.clone();
        tier.tier1 = 1;
        let mut personas = base.clone();
        personas.personas[0].pops += 1;
        for (what, cfg) in [
            ("seed", seed),
            ("n_stubs", stubs),
            ("n_vps", vps),
            ("peer_prob", peer),
            ("silent_share", silent),
            ("tier1", tier),
            ("personas", personas),
        ] {
            assert_ne!(c0, config_checksum(&cfg), "{what} not in checksum");
        }
    }

    #[test]
    fn cold_then_warm_round_trip() {
        let dir = tmp_dir("roundtrip");
        let cfg = InternetConfig::small(11);
        let (cold, s0) = generate_cached(&cfg, &dir).unwrap();
        assert_eq!(s0, CacheStatus::Cold);
        assert!(cache_file(&dir, &cfg).exists());
        let (warm, s1) = generate_cached(&cfg, &dir).unwrap();
        assert_eq!(s1, CacheStatus::Warm);
        assert_eq!(cold.net.num_routers(), warm.net.num_routers());
        assert_eq!(cold.vps, warm.vps);
        assert_eq!(cold.cp.cache_payload(), warm.cp.cache_payload());
        // And both match an uncached build.
        let plain = crate::internet::generate(&cfg);
        assert_eq!(plain.cp.cache_payload(), warm.cp.cache_payload());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let cfg = InternetConfig::small(13);
        generate_cached(&cfg, &dir).unwrap();
        let path = cache_file(&dir, &cfg);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // flip a payload byte, not the framing
        std::fs::write(&path, &bytes).unwrap();
        match generate_cached(&cfg, &dir) {
            Err(CacheError::CorruptPayload) => {}
            other => panic!("expected CorruptPayload, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_file_is_a_typed_error() {
        let dir = tmp_dir("stale");
        let cfg = InternetConfig::small(17);
        generate_cached(&cfg, &dir).unwrap();
        // A different config reading the same *file* sees StaleConfig.
        let mut other = cfg.clone();
        other.seed ^= 0xDEAD;
        match read_payload(&cache_file(&dir, &cfg), &other) {
            Err(CacheError::StaleConfig { .. }) => {}
            o => panic!("expected StaleConfig, got {o:?}"),
        }
        // Garbage leading bytes are BadMagic.
        let path = cache_file(&dir, &cfg);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        match read_payload(&path, &cfg) {
            Err(CacheError::BadMagic) => {}
            o => panic!("expected BadMagic, got {o:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
