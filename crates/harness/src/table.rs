//! Aligned text-table rendering for the experiment binaries.
//!
//! A table is written the way it prints: the header line and each row
//! are one string with cells separated by `|`.

use std::io::Write;

/// Renders `rows` under `headers` with aligned columns.
///
/// ```
/// let rows = ["scene_01 | 1.0", "s2 | 22.5"].map(String::from);
/// let text = tangram_harness::table::render("scene | value", rows);
/// assert_eq!(text, "scene     value\n---------------\nscene_01  1.0\ns2        22.5\n");
/// ```
#[must_use]
pub fn render(headers: &str, rows: impl IntoIterator<Item = String>) -> String {
    let cells = |line: &str| -> Vec<String> {
        line.split('|')
            .map(|cell| cell.trim().to_string())
            .collect()
    };
    let headers = cells(headers);
    let rows: Vec<Vec<String>> = rows.into_iter().map(|row| cells(&row)).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &rows {
        assert!(row.len() <= widths.len(), "a row wider than its header");
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(cell, &width)| format!("{cell:<width$}"))
            .collect();
        padded.join("  ").trim_end().to_string() + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let body: String = rows.iter().map(|row| line(row)).collect();
    line(&headers) + &rule + "\n" + &body
}

/// [`render`]s a table onto `out`.
///
/// # Panics
///
/// When `out` cannot be written, the way `println!` would.
pub fn write(out: &mut dyn Write, headers: &str, rows: impl IntoIterator<Item = String>) {
    let text = render(headers, rows);
    out.write_all(text.as_bytes())
        .expect("experiment output is writable");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let rows = ["scene_01 | 1.0", "s2|22.5"].map(String::from);
        let r = render("scene | value", rows);
        assert!(r.contains("scene_01  1.0"));
        assert!(r.lines().count() == 4);
    }
}
