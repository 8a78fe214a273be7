//! What an experiment prints, as data: an ordered list of text lines
//! and tables whose numeric cells keep their values, so a check can
//! read a table's numbers instead of parsing its text.
//!
//! [`Report::render`] produces the experiment's stdout byte for byte: a
//! line prints as its cells' text followed by a newline, and a table
//! prints as [`render_table`]'s block followed by a blank line.

use crate::{fmt_dr, render_table};

/// One table cell, or one fragment of a text line.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A number and the text it prints as.
    Num(f64, String),
    /// Text, including composite cells such as `2 FF + 3 gates` or
    /// `>16`.
    Text(String),
}

impl Cell {
    /// A diagnostic resolution, printed as [`fmt_dr`] prints it.
    pub fn dr(value: f64) -> Cell {
        Cell::Num(value, fmt_dr(value))
    }

    /// A number printed with `places` decimal places.
    pub fn fixed(value: f64, places: usize) -> Cell {
        Cell::Num(value, format!("{value:.places$}"))
    }

    /// A percentage, `value` already in percent, printed with `places`
    /// decimal places and a trailing `%`.
    pub fn percent(value: f64, places: usize) -> Cell {
        Cell::Num(value, format!("{value:.places$}%"))
    }

    /// A count, printed as an integer.
    pub fn count(n: usize) -> Cell {
        Cell::Num(n as f64, n.to_string())
    }

    /// Text.
    pub fn text(text: impl Into<String>) -> Cell {
        Cell::Text(text.into())
    }

    /// The value of a numeric cell.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Num(value, _) => Some(*value),
            Cell::Text(_) => None,
        }
    }

    /// The text the cell prints as.
    pub fn as_str(&self) -> &str {
        match self {
            Cell::Num(_, text) | Cell::Text(text) => text,
        }
    }
}

/// A table: a header row plus rows of cells.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// The rows, in print order.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The cells of the column headed `header`, top to bottom.
    pub fn column(&self, header: &str) -> Option<Vec<&Cell>> {
        let index = self.headers.iter().position(|h| h == header)?;
        Some(self.rows.iter().filter_map(|row| row.get(index)).collect())
    }
}

/// One item of a report.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A line of text, made of one or more cells.
    Line(Vec<Cell>),
    /// A table.
    Table(Table),
}

/// An experiment's output: lines and tables in print order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    items: Vec<Item>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a line of text (`""` for a blank line).
    pub fn line(&mut self, text: impl Into<String>) {
        self.items.push(Item::Line(vec![Cell::text(text)]));
    }

    /// Appends a line made of `cells`, printed side by side.
    pub fn line_cells(&mut self, cells: Vec<Cell>) {
        self.items.push(Item::Line(cells));
    }

    /// Appends a table.
    pub fn table(&mut self, headers: &[impl AsRef<str>], rows: Vec<Vec<Cell>>) {
        let headers = headers.iter().map(|h| h.as_ref().to_owned()).collect();
        self.items.push(Item::Table(Table { headers, rows }));
    }

    /// The items, in print order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The tables, in print order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.items.iter().filter_map(|item| match item {
            Item::Table(table) => Some(table),
            Item::Line(_) => None,
        })
    }

    /// The report as the experiment prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Line(cells) => {
                    for cell in cells {
                        out.push_str(cell.as_str());
                    }
                }
                Item::Table(table) => {
                    let headers: Vec<&str> = table.headers.iter().map(String::as_str).collect();
                    let rows: Vec<Vec<String>> = table
                        .rows
                        .iter()
                        .map(|row| row.iter().map(|c| c.as_str().to_owned()).collect())
                        .collect();
                    out.push_str(&render_table(&headers, &rows));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_lines_and_tables_as_printed() {
        let mut report = Report::new();
        report.line("Title");
        report.line("");
        report.table(
            &["name", "DR"],
            vec![vec![Cell::text("s953"), Cell::dr(0.5)]],
        );
        report.line_cells(vec![Cell::text("suspects: "), Cell::count(13)]);
        let table = render_table(&["name", "DR"], &[vec!["s953".into(), "0.500".into()]]);
        assert_eq!(report.render(), format!("Title\n\n{table}\nsuspects: 13\n"));
    }

    #[test]
    fn numeric_cells_keep_their_values() {
        let mut report = Report::new();
        report.table(
            &["a", "b"],
            vec![
                vec![Cell::percent(12.34, 1), Cell::text(">16")],
                vec![Cell::fixed(2.0, 0), Cell::count(7)],
            ],
        );
        let table = report.tables().next().expect("one table");
        let a: Vec<Option<f64>> = table
            .column("a")
            .unwrap()
            .iter()
            .map(|c| c.value())
            .collect();
        assert_eq!(a, [Some(12.34), Some(2.0)]);
        assert_eq!(table.rows()[0][0].as_str(), "12.3%");
        assert_eq!(table.column("b").unwrap()[0].value(), None);
        assert!(table.column("c").is_none());
    }
}
