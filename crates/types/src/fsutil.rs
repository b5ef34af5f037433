//! Filesystem helpers shared across the workspace.
//!
//! The one pattern every artifact writer needs: atomic replacement.
//! Checkpoints, border-map snapshots, bench JSON, and CSV artifacts are
//! all files another process (or a resumed run) may read at any moment,
//! so they must never be observable half-written.

use std::ffi::OsString;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `data` to `path` atomically *and durably*: the bytes land in a
/// sibling temporary file first, are fsynced, renamed into place, and
/// the parent directory is fsynced. A crash mid-write leaves either the
/// old file or the new one, never a torn mix — and once this returns,
/// a power loss cannot roll the rename back out of the directory.
///
/// Concurrent writers of the same path each use a temporary of their
/// own, so the last rename wins whole; none of them fails or publishes
/// another's half-written bytes.
pub fn write_atomic(path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = private_tmp(path);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        // fsync the temp file *before* the rename: renaming first could
        // publish a name whose bytes are still only in the page cache.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        // The temporary's name is never reused, so nothing else would
        // ever clear it.
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    sync_parent_dir(path)
}

/// The temporary [`write_atomic`] writes through: the [`tmp_sibling`]
/// name plus this process's id and a per-process sequence number. A
/// shared name would let two writers of one path (say, a snapshot
/// store's publisher and a reader re-pointing the same manifest) rename
/// each other's temporary away, failing the slower rename.
fn private_tmp(path: &Path) -> OsString {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = tmp_sibling(path);
    tmp.push(format!(
        ".{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    tmp
}

/// fsync the directory containing `path`, so the rename that just put
/// `path` in place survives power loss. Directory fds are a Unix
/// notion; elsewhere this is a no-op.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// The temporary sibling used by [`write_atomic`]: the same path with
/// `.tmp` appended, which stays in the same directory (and therefore on
/// the same filesystem, keeping the rename atomic).
pub(crate) fn tmp_sibling(path: &Path) -> OsString {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    tmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join("bdrmap-fsutil-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let path = tmp_dir().join("a.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leaves_no_temporary_behind() {
        let path = tmp_dir().join("b.bin");
        write_atomic(&path, b"data").unwrap();
        assert!(!Path::new(&tmp_sibling(&path)).exists());
        let leftovers = std::fs::read_dir(tmp_dir())
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("b.bin.tmp")
            })
            .count();
        assert_eq!(leftovers, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let path = tmp_dir().join("c.bin");
        let writers: Vec<_> = (0..4u8)
            .map(|w| {
                let path = path.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        write_atomic(&path, &[w; 64]).unwrap();
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        // Whichever rename came last landed whole.
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|&b| b == got[0]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dotted_names_do_not_collide() {
        // `with_extension`-style tmp naming would map x.a and x.b to the
        // same temporary; appending must keep them distinct.
        assert_ne!(
            tmp_sibling(Path::new("/d/x.a")),
            tmp_sibling(Path::new("/d/x.b"))
        );
    }
}
