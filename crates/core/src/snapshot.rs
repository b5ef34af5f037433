//! On-disk border-map snapshots.
//!
//! A finished inference ([`BorderMap`]) is the artifact the serving
//! subsystem loads and hot-swaps; this module gives it a versioned,
//! length-checked binary encoding (the same style as the `BDRW` trace
//! store) plus atomic save/load, so a probe+infer cycle can publish a
//! snapshot file that bdrmapd picks up with a `reload` command.
//!
//! Version 2 adds end-to-end integrity: every section carries a CRC32C
//! of its body and the file closes with a footer checksum over all
//! preceding bytes, so a bit-flipped or truncated file is rejected with
//! a typed error instead of decoding into garbage. Version 1 files
//! (no checksums) remain readable. Version 3 is the flat zero-copy
//! layout documented in [`crate::flat`]; [`decode`] dispatches on the
//! version field, and writers pick a version via [`encode_as`] /
//! [`save_as`] (the default is [`DEFAULT_VERSION`]).
//!
//! Layout (v2):
//!
//! ```text
//! magic "BDRM" | u16 version
//! meta    := u64 packets | u64 elapsed_ms            | u32 crc32c(body)
//! routers := u32 router_count | router*              | u32 crc32c(body)
//! links   := u32 link_count | link*                  | u32 crc32c(body)
//! footer  := u32 crc32c(every preceding byte)
//! router  := u16 n_addrs | u32* | u16 n_other | u32* |
//!            u8 has_owner [u32 asn] | u8 heuristic (255 = none) | u8 min_hop
//! link    := u32 near | u8 has_far [u32 far] | u32 far_as |
//!            u8 has_near_addr [u32] | u8 has_far_addr [u32] | u8 heuristic
//! ```

use crate::output::{BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_types::integrity::crc32c;
use bdrmap_types::wire::{WireError, WireReader, WireWriter};
use bdrmap_types::{addr, addr_bits, Addr, Asn};
use std::path::Path;

/// File magic.
const MAGIC: &[u8; 4] = b"BDRM";
/// The parse-and-rebuild version with per-section CRC32C + footer.
const V2: u16 = 2;
/// Newest version this reader accepts (v3: the flat zero-copy layout,
/// implemented in [`crate::flat`]).
pub const LATEST_VERSION: u16 = crate::flat::VERSION;
/// The version new snapshots are written as when none is requested.
pub const DEFAULT_VERSION: u16 = LATEST_VERSION;
/// Oldest version this reader still accepts.
pub const MIN_VERSION: u16 = 1;
/// Heuristic byte meaning "no heuristic recorded".
const NO_HEURISTIC: u8 = 255;

/// Errors while reading (or refusing to write) a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not a border-map snapshot.
    BadMagic,
    /// Version newer than this reader.
    BadVersion(u16),
    /// Truncated or internally inconsistent.
    Malformed,
    /// A section body failed its CRC32C — bit rot or a torn write.
    SectionCrc(&'static str),
    /// The whole-file footer checksum failed.
    FooterCrc,
    /// A count in the map exceeds what the requested format version can
    /// represent. Refusing to encode beats writing a silently truncated
    /// — but correctly checksummed — file.
    TooLarge(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a border-map snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Malformed => write!(f, "truncated or malformed snapshot"),
            SnapshotError::SectionCrc(s) => write!(f, "snapshot {s} section failed its checksum"),
            SnapshotError::FooterCrc => write!(f, "snapshot footer checksum mismatch"),
            SnapshotError::TooLarge(s) => {
                write!(f, "snapshot {s} count exceeds the format version's limit")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(_: WireError) -> SnapshotError {
        SnapshotError::Malformed
    }
}

fn put_opt_addr(w: &mut WireWriter, a: Option<Addr>) {
    match a {
        Some(a) => {
            w.put_u8(1);
            w.put_u32(addr_bits(a));
        }
        None => w.put_u8(0),
    }
}

fn get_opt_addr(r: &mut WireReader) -> Result<Option<Addr>, WireError> {
    Ok(if r.get_u8()? != 0 {
        Some(addr(r.get_u32()?))
    } else {
        None
    })
}

fn encode_meta(w: &mut WireWriter, map: &BorderMap) {
    w.put_u64(map.packets);
    w.put_u64(map.elapsed_ms);
}

/// The v1/v2 router encoding stores interface counts as `u16`; a map
/// exceeding that must be refused, not silently truncated into a
/// wrong-but-checksummed file.
fn check_v2_limits(map: &BorderMap) -> Result<(), SnapshotError> {
    for router in &map.routers {
        if router.addrs.len() > u16::MAX as usize {
            return Err(SnapshotError::TooLarge("router interface"));
        }
        if router.other_addrs.len() > u16::MAX as usize {
            return Err(SnapshotError::TooLarge("router other-interface"));
        }
    }
    Ok(())
}

fn encode_routers(w: &mut WireWriter, map: &BorderMap) {
    w.put_u32(map.routers.len() as u32);
    for router in &map.routers {
        w.put_u16(router.addrs.len() as u16);
        for &a in &router.addrs {
            w.put_u32(addr_bits(a));
        }
        w.put_u16(router.other_addrs.len() as u16);
        for &a in &router.other_addrs {
            w.put_u32(addr_bits(a));
        }
        match router.owner {
            Some(asn) => {
                w.put_u8(1);
                w.put_u32(asn.0);
            }
            None => w.put_u8(0),
        }
        w.put_u8(
            router
                .heuristic
                .map(Heuristic::code)
                .unwrap_or(NO_HEURISTIC),
        );
        w.put_u8(router.min_hop);
    }
}

fn encode_links(w: &mut WireWriter, map: &BorderMap) {
    w.put_u32(map.links.len() as u32);
    for link in &map.links {
        w.put_u32(link.near as u32);
        match link.far {
            Some(far) => {
                w.put_u8(1);
                w.put_u32(far as u32);
            }
            None => w.put_u8(0),
        }
        w.put_u32(link.far_as.0);
        put_opt_addr(&mut *w, link.near_addr);
        put_opt_addr(&mut *w, link.far_addr);
        w.put_u8(link.heuristic.code());
    }
}

/// Serialize a border map to the canonical v2 byte encoding, computing
/// each section's CRC32C and the footer checksum as it goes. Refuses
/// (with [`SnapshotError::TooLarge`]) any count the format cannot
/// represent.
pub fn encode(map: &BorderMap) -> Result<Vec<u8>, SnapshotError> {
    check_v2_limits(map)?;
    let mut out = WireWriter::new();
    out.put_slice(MAGIC);
    out.put_u16(V2);
    for fill in [encode_meta, encode_routers, encode_links] {
        let mut section = WireWriter::new();
        fill(&mut section, map);
        let body = section.into_vec();
        out.put_slice(&body);
        out.put_u32(crc32c(&body));
    }
    let mut bytes = out.into_vec();
    let footer = crc32c(&bytes);
    bytes.extend_from_slice(&footer.to_be_bytes());
    Ok(bytes)
}

/// Serialize to the legacy v1 encoding (no checksums). Kept so the v1
/// read path and the fuzzer's version-compatibility corpus stay
/// exercised; new snapshots are written as v2 or v3.
pub fn encode_v1(map: &BorderMap) -> Result<Vec<u8>, SnapshotError> {
    check_v2_limits(map)?;
    let mut w = WireWriter::new();
    w.put_slice(MAGIC);
    w.put_u16(1);
    encode_meta(&mut w, map);
    encode_routers(&mut w, map);
    encode_links(&mut w, map);
    Ok(w.into_vec())
}

/// Serialize to the flat zero-copy v3 encoding; see [`crate::flat`].
pub fn encode_v3(map: &BorderMap) -> Result<Vec<u8>, SnapshotError> {
    crate::flat::encode_v3(map)
}

/// Serialize as an explicit format version (1, 2, or 3).
pub fn encode_as(map: &BorderMap, version: u16) -> Result<Vec<u8>, SnapshotError> {
    match version {
        1 => encode_v1(map),
        2 => encode(map),
        3 => encode_v3(map),
        v => Err(SnapshotError::BadVersion(v)),
    }
}

/// The format version claimed by a snapshot's preamble, if the magic
/// matches. Says nothing about the rest of the bytes.
pub fn version_of(data: &[u8]) -> Option<u16> {
    if data.len() < 6 || &data[..4] != MAGIC {
        return None;
    }
    Some(u16::from_be_bytes([data[4], data[5]]))
}

fn decode_routers(
    r: &mut WireReader,
    total_len: usize,
) -> Result<Vec<InferredRouter>, SnapshotError> {
    let n_routers = r.get_u32()? as usize;
    if n_routers > total_len {
        return Err(SnapshotError::Malformed);
    }
    let mut routers = Vec::with_capacity(n_routers);
    for _ in 0..n_routers {
        let n = r.get_u16()? as usize;
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            addrs.push(addr(r.get_u32()?));
        }
        let n = r.get_u16()? as usize;
        let mut other_addrs = Vec::with_capacity(n);
        for _ in 0..n {
            other_addrs.push(addr(r.get_u32()?));
        }
        let owner = if r.get_u8()? != 0 {
            Some(Asn(r.get_u32()?))
        } else {
            None
        };
        let heuristic = match r.get_u8()? {
            NO_HEURISTIC => None,
            code => Some(Heuristic::from_code(code).ok_or(SnapshotError::Malformed)?),
        };
        routers.push(InferredRouter {
            addrs,
            other_addrs,
            owner,
            heuristic,
            min_hop: r.get_u8()?,
        });
    }
    Ok(routers)
}

fn decode_links(
    r: &mut WireReader,
    total_len: usize,
    n_routers: usize,
) -> Result<Vec<InferredLink>, SnapshotError> {
    let n_links = r.get_u32()? as usize;
    if n_links > total_len {
        return Err(SnapshotError::Malformed);
    }
    let mut links = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        let near = r.get_u32()? as usize;
        let far = if r.get_u8()? != 0 {
            Some(r.get_u32()? as usize)
        } else {
            None
        };
        if near >= n_routers || far.is_some_and(|f| f >= n_routers) {
            return Err(SnapshotError::Malformed);
        }
        links.push(InferredLink {
            near,
            far,
            far_as: Asn(r.get_u32()?),
            near_addr: get_opt_addr(r)?,
            far_addr: get_opt_addr(r)?,
            heuristic: Heuristic::from_code(r.get_u8()?).ok_or(SnapshotError::Malformed)?,
        });
    }
    Ok(links)
}

/// Parse the canonical byte encoding, validating every checksum (v2)
/// and cross-reference. Rejects trailing bytes after the last section.
pub fn decode(data: &[u8]) -> Result<BorderMap, SnapshotError> {
    let mut r = WireReader::new(data);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.get_u8().map_err(|_| SnapshotError::BadMagic)?;
    }
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.get_u16()?;
    if !(MIN_VERSION..=LATEST_VERSION).contains(&version) {
        return Err(SnapshotError::BadVersion(version));
    }
    match version {
        1 => decode_v1_body(data, r),
        2 => decode_v2_body(data, r),
        _ => crate::flat::decode_v3(data),
    }
}

/// What a full read check of snapshot bytes proved, in the form the
/// next step needs. v1/v2 files are checked by decoding them, so the
/// decoded map comes back. A v3 file is checked in place (every
/// checksum, then the structural pass), so its layout and proof come
/// back, and a [`V3View`](crate::flat::V3View) opens over the same
/// bytes without checking them again.
#[derive(Debug)]
pub enum Verified {
    /// A v1/v2 file, decoded.
    Map(BorderMap),
    /// A v3 file: its layout and the structural-validation proof.
    Flat(crate::flat::Layout, crate::flat::Validated),
}

/// Accept or reject `data` exactly as [`decode`] does, but without
/// materialising a v3 file as a [`BorderMap`]: readers that serve the
/// bytes as a view pay each check once and no decode.
pub fn verify(data: &[u8]) -> Result<Verified, SnapshotError> {
    if version_of(data) == Some(crate::flat::VERSION) {
        let lay = crate::flat::verify_integrity(data)?;
        let ok = crate::flat::validate_structure(data, &lay)?;
        return Ok(Verified::Flat(lay, ok));
    }
    decode(data).map(Verified::Map)
}

/// v1: sections follow each other with no checksums.
fn decode_v1_body(data: &[u8], mut r: WireReader) -> Result<BorderMap, SnapshotError> {
    let packets = r.get_u64()?;
    let elapsed_ms = r.get_u64()?;
    let routers = decode_routers(&mut r, data.len())?;
    let links = decode_links(&mut r, data.len(), routers.len())?;
    r.finish()?;
    Ok(BorderMap {
        routers,
        links,
        packets,
        elapsed_ms,
    })
}

/// v2: each section body is followed by its CRC32C; the file closes
/// with a footer checksum over every preceding byte.
fn decode_v2_body(data: &[u8], mut r: WireReader) -> Result<BorderMap, SnapshotError> {
    // Verify the footer first: it covers everything, so a file that
    // passes it can only fail section CRCs through a codec bug.
    if data.len() < 4 {
        return Err(SnapshotError::Malformed);
    }
    let body_end = data.len() - 4;
    let stored_footer = u32::from_be_bytes(data[body_end..].try_into().unwrap());
    if crc32c(&data[..body_end]) != stored_footer {
        return Err(SnapshotError::FooterCrc);
    }

    let pos = |r: &WireReader| data.len() - r.remaining();
    let check = |r: &mut WireReader, start: usize, name: &'static str| {
        let end = pos(r);
        let stored = r.get_u32().map_err(SnapshotError::from)?;
        if crc32c(&data[start..end]) != stored {
            return Err(SnapshotError::SectionCrc(name));
        }
        Ok(())
    };

    let start = pos(&r);
    let packets = r.get_u64()?;
    let elapsed_ms = r.get_u64()?;
    check(&mut r, start, "meta")?;

    let start = pos(&r);
    let routers = decode_routers(&mut r, data.len())?;
    check(&mut r, start, "routers")?;

    let start = pos(&r);
    let links = decode_links(&mut r, data.len(), routers.len())?;
    check(&mut r, start, "links")?;

    // Footer (already verified above), then nothing: trailing bytes
    // after the last section are rejected.
    r.get_u32()?;
    r.finish()?;
    Ok(BorderMap {
        routers,
        links,
        packets,
        elapsed_ms,
    })
}

/// Write a snapshot to `path` as an explicit format version, replacing
/// atomically.
pub fn save_as(path: &Path, map: &BorderMap, version: u16) -> std::io::Result<()> {
    let bytes = encode_as(map, version)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    bdrmap_types::fsutil::write_atomic(path, &bytes)
}

/// Write a snapshot to `path` in the default (newest) format version,
/// replacing atomically.
pub fn save(path: &Path, map: &BorderMap) -> std::io::Result<()> {
    save_as(path, map, DEFAULT_VERSION)
}

/// Read a snapshot from `path`.
pub fn load(path: &Path) -> std::io::Result<BorderMap> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    pub(crate) fn sample() -> BorderMap {
        BorderMap {
            routers: vec![
                InferredRouter {
                    addrs: vec![a("10.0.0.1"), a("10.0.0.5")],
                    other_addrs: vec![a("192.0.2.1")],
                    owner: Some(Asn(64500)),
                    heuristic: Some(Heuristic::VpInternal),
                    min_hop: 1,
                },
                InferredRouter {
                    addrs: vec![a("10.0.0.2")],
                    other_addrs: vec![],
                    owner: None,
                    heuristic: None,
                    min_hop: 3,
                },
            ],
            links: vec![
                InferredLink {
                    near: 0,
                    far: Some(1),
                    far_as: Asn(64501),
                    near_addr: Some(a("10.0.0.1")),
                    far_addr: Some(a("10.0.0.2")),
                    heuristic: Heuristic::OneNet,
                },
                InferredLink {
                    near: 0,
                    far: None,
                    far_as: Asn(64502),
                    near_addr: None,
                    far_addr: None,
                    heuristic: Heuristic::SilentNeighbor,
                },
            ],
            packets: 1234,
            elapsed_ms: 5678,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let map = sample();
        let back = decode(&encode(&map).unwrap()).unwrap();
        assert_eq!(back.packets, map.packets);
        assert_eq!(back.elapsed_ms, map.elapsed_ms);
        assert_eq!(back.routers.len(), 2);
        assert_eq!(back.routers[0].addrs, map.routers[0].addrs);
        assert_eq!(back.routers[0].other_addrs, map.routers[0].other_addrs);
        assert_eq!(back.routers[0].owner, Some(Asn(64500)));
        assert_eq!(back.routers[1].owner, None);
        assert_eq!(back.routers[1].heuristic, None);
        assert_eq!(back.links.len(), 2);
        assert_eq!(back.links[0].far, Some(1));
        assert_eq!(back.links[0].near_addr, map.links[0].near_addr);
        assert_eq!(back.links[1].far, None);
        assert_eq!(back.links[1].heuristic, Heuristic::SilentNeighbor);
    }

    #[test]
    fn v1_files_remain_readable() {
        let map = sample();
        let v1 = encode_v1(&map).unwrap();
        let back = decode(&v1).unwrap();
        // Same content, and re-encoding lands on the canonical v2 bytes.
        assert_eq!(encode(&back).unwrap(), encode(&map).unwrap());
        // v1 rejects trailing garbage too.
        let mut padded = v1.clone();
        padded.push(0);
        assert!(matches!(decode(&padded), Err(SnapshotError::Malformed)));
        // And truncation at every byte offset.
        for cut in 0..v1.len() {
            assert!(decode(&v1[..cut]).is_err(), "v1 cut at {cut} decoded");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let full = encode(&sample()).unwrap();
        assert!(matches!(decode(b"NOPE"), Err(SnapshotError::BadMagic)));
        // Trailing garbage is rejected (footer CRC no longer aligns).
        let mut padded = full.clone();
        padded.push(0);
        assert!(decode(&padded).is_err());
        // A link pointing at a nonexistent router is rejected even when
        // the checksums are recomputed to match.
        let mut bad = sample();
        bad.links[0].near = 99;
        assert!(matches!(
            decode(&encode(&bad).unwrap()),
            Err(SnapshotError::Malformed)
        ));
        // An unknown future version is rejected.
        let mut future = full.clone();
        future[4] = 0;
        future[5] = 99;
        assert!(matches!(
            decode(&future),
            Err(SnapshotError::BadVersion(99))
        ));
    }

    /// Truncation at *every* byte offset must yield an error, never a
    /// panic or a silently short map.
    #[test]
    fn truncated_at_every_byte_offset_is_rejected() {
        let full = encode(&sample()).unwrap();
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    /// Every single-bit flip anywhere in the file is caught by a
    /// checksum (or an earlier structural check).
    #[test]
    fn any_bit_flip_is_rejected() {
        let full = encode(&sample()).unwrap();
        for byte in 0..full.len() {
            for bit in 0..8 {
                let mut flipped = full.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    decode(&flipped).is_err(),
                    "flip at {byte}:{bit} decoded successfully"
                );
            }
        }
    }

    /// Flips in a section body are reported as checksum failures, not
    /// generic malformation, when the structure still parses.
    #[test]
    fn crc_failures_are_typed() {
        let map = sample();
        let full = encode(&map).unwrap();
        // Flip one bit inside the meta section body (packets field,
        // right after magic + version).
        let mut flipped = full.clone();
        flipped[7] ^= 1;
        assert!(matches!(
            decode(&flipped),
            Err(SnapshotError::FooterCrc | SnapshotError::SectionCrc(_))
        ));
        // Repair the footer so only the section CRC can catch it.
        let body_end = flipped.len() - 4;
        let refreshed = crc32c(&flipped[..body_end]).to_be_bytes();
        flipped[body_end..].copy_from_slice(&refreshed);
        assert!(matches!(
            decode(&flipped),
            Err(SnapshotError::SectionCrc("meta"))
        ));
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("bdrmap-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.bdrm");
        let map = sample();
        save(&path, &map).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(encode(&back).unwrap(), encode(&map).unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// `version_of` sniffs the preamble without decoding.
    #[test]
    fn version_of_sniffs_preamble() {
        let map = sample();
        assert_eq!(version_of(&encode_v1(&map).unwrap()), Some(1));
        assert_eq!(version_of(&encode(&map).unwrap()), Some(2));
        assert_eq!(version_of(&encode_v3(&map).unwrap()), Some(3));
        assert_eq!(version_of(b"NOPE"), None);
        assert_eq!(version_of(b"BDRM"), None);
    }

    /// Regression: a 70k-interface router used to be silently truncated
    /// to `70000 % 65536` addresses by the u16 count in the v1/v2
    /// router record — and the CRCs would vouch for the wrong file. Now
    /// v1/v2 refuse with a typed error, while v3 (u32 counts) encodes
    /// and round-trips the full set.
    #[test]
    fn oversized_router_is_refused_by_v2_and_carried_by_v3() {
        let n = 70_000u32;
        let map = BorderMap {
            routers: vec![InferredRouter {
                addrs: (0..n).map(|i| addr(0x0a00_0000 + i)).collect(),
                other_addrs: vec![],
                owner: Some(Asn(64500)),
                heuristic: None,
                min_hop: 1,
            }],
            links: vec![],
            packets: 0,
            elapsed_ms: 0,
        };
        assert_eq!(
            encode(&map),
            Err(SnapshotError::TooLarge("router interface"))
        );
        assert_eq!(
            encode_v1(&map),
            Err(SnapshotError::TooLarge("router interface"))
        );
        let v3 = encode_v3(&map).unwrap();
        let back = decode(&v3).unwrap();
        assert_eq!(back.routers[0].addrs.len(), n as usize);
        assert_eq!(back.routers[0].addrs, map.routers[0].addrs);

        // `other_addrs` has its own u16 count with the same failure mode.
        let mut other = sample();
        other.routers[0].other_addrs = (0..n).map(|i| addr(0xc000_0000 + i)).collect();
        assert_eq!(
            encode(&other),
            Err(SnapshotError::TooLarge("router other-interface"))
        );
        assert!(encode_v3(&other).is_ok());
    }
}
