//! Embeds the shipped `.msg` tree (`msg/<pkg>/<Name>.msg`) into the crate as
//! one `(package, name, text)` table sorted by package, then name, so the
//! standard catalog and `rossf-msg`'s generated modules come from the same
//! files and adding a message is adding a file.

use std::fmt::Write;
use std::path::{Path, PathBuf};

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    entries
}

fn main() {
    println!("cargo:rerun-if-changed=msg");
    let root =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo")).join("msg");

    let mut table = String::from("&[\n");
    for pkg in sorted_entries(&root) {
        for file in sorted_entries(&pkg) {
            if file.extension().is_some_and(|ext| ext == "msg") {
                let _ = writeln!(
                    table,
                    "    ({:?}, {:?}, include_str!({file:?})),",
                    pkg.file_name().expect("package directory"),
                    file.file_stem().expect("file stem")
                );
            }
        }
    }
    table.push_str("]\n");

    let out = PathBuf::from(std::env::var("OUT_DIR").expect("set by cargo"));
    std::fs::write(out.join("standard_tree.rs"), table).expect("write the embedded tree");
}
