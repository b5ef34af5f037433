//! The snapshot store verifies a v3 generation in place (checksums,
//! then the structural pass) instead of decoding it. These tests pin
//! that no check was dropped on the way: a generation whose checksums
//! are all valid but whose structure is not must still be quarantined
//! by `load_verified` and refused by `publish`'s read-back.

use bdrmap_core::snapshot::{self, Verified};
use bdrmap_core::{flat, SnapStore};
use bdrmap_obs::Registry;
use bdrmap_types::{fsutil, Vfs, VfsBackend};
use std::io;
use std::path::{Path, PathBuf};

mod crafted;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdrmap-snapstore-checks-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The crafted map with a recognisable packet count.
fn good(packets: u64) -> bdrmap_core::BorderMap {
    let mut map = crafted::owned_and_ownerless();
    map.packets = packets;
    map
}

#[test]
fn crc_valid_malformed_generation_is_quarantined_and_rolled_back() {
    let dir = fresh_dir("load");
    let store = SnapStore::open(&dir).unwrap();
    assert_eq!(store.snapshot_version(), flat::VERSION);
    assert_eq!(store.publish(&good(1)).unwrap(), 1);
    assert_eq!(store.publish(&good(2)).unwrap(), 2);

    let evil = crafted::trie_entry_at_ownerless_router();
    assert!(flat::verify_integrity(&evil).is_ok(), "every CRC must pass");
    std::fs::write(store.path_of(2), &evil).unwrap();

    let out = store.load_verified().unwrap();
    assert_eq!(out.generation, 1, "must roll back past the malformed file");
    assert!(out.rolled_back());
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].generation, 2);
    assert!(
        out.quarantined[0].reason.contains("malformed"),
        "{}",
        out.quarantined[0].reason
    );
    assert!(matches!(out.verified, Verified::Flat(..)));
    assert_eq!(out.into_map().packets, 1);
    assert!(!store.path_of(2).exists(), "the file must be quarantined");
    assert!(dir.join("corrupt").join("gen-000002.bdrm").exists());
    assert_eq!(store.manifest_generation(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A filesystem whose snapshot writes land as the crafted file: the
/// bytes on disk differ from the bytes `publish` encoded, but every
/// checksum in them is valid.
struct MalformingFs {
    evil: Vec<u8>,
}

impl VfsBackend for MalformingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let snapshot = path.extension().is_some_and(|e| e == "bdrm");
        fsutil::write_atomic(path, if snapshot { &self.evil } else { data })
    }
    fn append(&self, _path: &Path, _data: &[u8]) -> io::Result<()> {
        unreachable!("the snapshot store never appends")
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

#[test]
fn publish_read_back_refuses_a_crc_valid_malformed_file() {
    let dir = fresh_dir("publish");
    let clean = SnapStore::open(&dir).unwrap();
    assert_eq!(clean.publish(&good(1)).unwrap(), 1);

    let evil = crafted::trie_entry_at_ownerless_router();
    let store =
        SnapStore::open_with(&dir, Vfs::new(MalformingFs { evil }), Registry::new()).unwrap();
    let err = store.publish(&good(2)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string().contains("read-back verification failed"),
        "{err}"
    );
    // The manifest never moved to the refused generation, and the next
    // load quarantines the file it left behind.
    assert_eq!(clean.manifest_generation(), Some(1));
    let out = clean.load_verified().unwrap();
    assert_eq!(out.generation, 1);
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].generation, 2);
    assert_eq!(out.into_map().packets, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `verify` accepts and refuses exactly what `decode` does, and a v3
/// acceptance carries the proof a view opens from without a re-check.
#[test]
fn verify_agrees_with_decode_across_versions() {
    let map = good(7);
    for version in [1, 2, 3] {
        let bytes = snapshot::encode_as(&map, version).unwrap();
        match snapshot::verify(&bytes).unwrap() {
            Verified::Map(m) => {
                assert_ne!(version, flat::VERSION);
                assert_eq!(snapshot::encode_as(&m, version).unwrap(), bytes);
            }
            Verified::Flat(lay, ok) => {
                assert_eq!(version, flat::VERSION);
                let view = flat::V3View::from_validated(bytes.clone(), lay, ok, std::iter::empty());
                assert_eq!(snapshot::encode_v3(&view.to_border_map()).unwrap(), bytes);
            }
        }
        for cut in 0..bytes.len() {
            assert_eq!(
                snapshot::verify(&bytes[..cut]).err(),
                snapshot::decode(&bytes[..cut]).err(),
                "v{version} cut at {cut}"
            );
        }
    }
}
