//! Gnuplot-friendly `.dat` export of the experiment tables.
//!
//! Every experiment renders one whitespace-separated text table (see
//! [`EXPERIMENTS`](super::EXPERIMENTS)); setting `BITLINE_EXPORT_DIR` makes
//! `bitline-sim <name>` also write exactly what it printed to
//! `<dir>/<name>.dat`, so the paper's plots can be regenerated
//! graphically:
//!
//! ```sh
//! BITLINE_EXPORT_DIR=plots bitline-sim fig9
//! gnuplot -e "plot 'plots/fig9.dat' using 1:2 with lines"
//! ```

use std::io;
use std::path::{Path, PathBuf};

/// The export directory requested via `BITLINE_EXPORT_DIR`, if any.
#[must_use]
pub fn export_dir() -> Option<PathBuf> {
    std::env::var_os("BITLINE_EXPORT_DIR").map(PathBuf::from)
}

/// Writes `text` to `<dir>/<name>.dat` with a temp-file + rename, so a
/// crash mid-export never leaves a truncated `.dat` behind.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn publish(dir: &Path, name: &str, text: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.dat"));
    bitline_exec::atomic_write(&path, text.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig2;

    #[test]
    fn fig2_export_round_trips_through_text() {
        let dir = std::env::temp_dir().join(format!("bitline-export-test-{}", std::process::id()));
        let text = fig2::render(&fig2::run(11));
        let path = publish(&dir, "fig2", &text).expect("export succeeds");
        assert_eq!(path.file_name().and_then(|n| n.to_str()), Some("fig2.dat"));
        assert_eq!(std::fs::read_to_string(&path).expect("file exists"), text);
        let data_lines: Vec<&str> =
            text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).collect();
        assert_eq!(data_lines.len(), 11);
        // Each row: t + 4 node columns, all parseable.
        for line in data_lines {
            let cols: Vec<f64> =
                line.split_whitespace().map(|c| c.parse().expect("numeric")).collect();
            assert_eq!(cols.len(), 5);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_dir_reflects_environment() {
        // Not set in the test environment by default.
        if std::env::var_os("BITLINE_EXPORT_DIR").is_none() {
            assert!(export_dir().is_none());
        }
    }
}
