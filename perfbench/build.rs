//! Records build provenance for the benchmark's result lines: the
//! rustc version, the build profile, the git revision when the sources
//! are a git checkout, and a digest of the program's sources, which
//! identifies the build even where there is no git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let sources = [
        root.join("crates"),
        root.join("compat"),
        root.join("Cargo.toml"),
    ];
    for s in &sources {
        println!("cargo:rerun-if-changed={}", s.display());
    }

    let mut files = Vec::new();
    for s in &sources {
        collect(s, &mut files);
    }
    files.sort();
    // FNV-1a over each file's path relative to the root and its bytes.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.unwrap_or_else(|| "unknown".into())
    );
    // Only when the sources themselves are a git checkout: the ceiling
    // keeps git from searching the directories above them.
    let root = root.canonicalize().unwrap_or(root);
    let ceiling = root.parent().unwrap_or(&root).to_path_buf();
    let rev = output(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .current_dir(&root),
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "none".into())
    );
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
}

/// Every `.rs` and `.toml` file under `path`, skipping build output.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
        out.push(path.to_path_buf());
    }
}

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|t| !t.is_empty())
}
