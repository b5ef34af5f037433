//! Crafted v3 files shared by the snapshot and store suites: bytes
//! whose checksums are all valid but whose structure is not, so only
//! the structural validation pass can refuse them.

use bdrmap_core::{flat, snapshot, BorderMap, Heuristic, InferredLink, InferredRouter};
use bdrmap_types::integrity::crc32c;
use bdrmap_types::{Addr, Asn};

fn a(s: &str) -> Addr {
    s.parse().unwrap()
}

/// Two routers, 0 owned and 1 ownerless, joined by one link.
pub fn owned_and_ownerless() -> BorderMap {
    BorderMap {
        routers: vec![
            InferredRouter {
                addrs: vec![a("10.0.0.1")],
                other_addrs: vec![],
                owner: Some(Asn(100)),
                heuristic: Some(Heuristic::VpInternal),
                min_hop: 1,
            },
            InferredRouter {
                addrs: vec![a("10.0.0.2")],
                other_addrs: vec![],
                owner: None,
                heuristic: None,
                min_hop: 2,
            },
        ],
        links: vec![InferredLink {
            near: 0,
            far: Some(1),
            far_as: Asn(200),
            near_addr: Some(a("10.0.0.1")),
            far_addr: Some(a("10.0.0.2")),
            heuristic: Heuristic::OneNet,
        }],
        packets: 0,
        elapsed_ms: 0,
    }
}

/// [`owned_and_ownerless`] as v3 bytes with its one trie entry pointed
/// at the ownerless router. The encoder only emits trie entries for
/// owned routers; the trie section CRC and the whole-file footer are
/// recomputed after the edit, so every checksum passes.
pub fn trie_entry_at_ownerless_router() -> Vec<u8> {
    let bytes = snapshot::encode_v3(&owned_and_ownerless()).unwrap();
    let lay = flat::verify_integrity(&bytes).unwrap();

    let mut evil = bytes.clone();
    let node = (0..lay.n_trie)
        .find(|i| {
            let at = lay.trie + i * 12 + 8;
            u32::from_le_bytes(evil[at..at + 4].try_into().unwrap()) != u32::MAX
        })
        .expect("an owned router must have a trie entry");
    let at = lay.trie + node * 12 + 8;
    evil[at..at + 4].copy_from_slice(&1u32.to_le_bytes());

    // Re-seal the file: trie section CRC, then the whole-file footer.
    let trie_end = lay.trie + lay.n_trie * 12;
    let crc = crc32c(&evil[lay.trie..trie_end]);
    evil[trie_end..trie_end + 4].copy_from_slice(&crc.to_le_bytes());
    let foot = evil.len() - 4;
    let crc = crc32c(&evil[..foot]);
    evil[foot..].copy_from_slice(&crc.to_le_bytes());
    evil
}
