//! CSV read/write.
//!
//! The data-science-pipeline workloads (TPCx-AI UC10, census, plasticc) are
//! "with IO" in the paper: they start from CSV files. This module provides
//! the kernel-level reader/writer that chunked `ReadCsv` operators call.

use crate::column::Column;
use crate::dates;
use crate::error::{DfError, DfResult};
use crate::frame::DataFrame;
use crate::scalar::{DataType, Scalar};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// CSV read options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter.
    pub delimiter: u8,
    /// Whether the first row is a header.
    pub has_header: bool,
    /// Explicit schema as `(name, dtype)`; inferred from the first rows
    /// when `None`.
    pub schema: Option<Vec<(String, DataType)>>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: true,
            schema: None,
        }
    }
}

/// Reads a whole CSV file.
pub fn read_csv_path(path: &Path, opts: &CsvOptions) -> DfResult<DataFrame> {
    let file = std::fs::File::open(path)
        .map_err(|e| DfError::Parse(format!("open {}: {e}", path.display())))?;
    read_csv(BufReader::new(file), opts)
}

/// Reads CSV from any reader.
pub fn read_csv<R: Read>(reader: R, opts: &CsvOptions) -> DfResult<DataFrame> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines();

    let mut header: Option<Vec<String>> = None;
    if opts.has_header {
        match lines.next() {
            Some(line) => {
                let line = line.map_err(|e| DfError::Parse(e.to_string()))?;
                header = Some(
                    split_line(&line, opts.delimiter)
                        .into_iter()
                        .map(|s| s.to_string())
                        .collect(),
                );
            }
            None => {
                return Err(DfError::Parse("empty csv".into()));
            }
        }
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    for line in lines {
        let line = line.map_err(|e| DfError::Parse(e.to_string()))?;
        if line.is_empty() {
            continue;
        }
        rows.push(
            split_line(&line, opts.delimiter)
                .into_iter()
                .map(|s| s.to_string())
                .collect(),
        );
    }

    let ncols = header
        .as_ref()
        .map(|h| h.len())
        .or_else(|| rows.first().map(|r| r.len()))
        .unwrap_or(0);
    let names: Vec<String> = match &header {
        Some(h) => h.clone(),
        None => (0..ncols).map(|i| format!("c{i}")).collect(),
    };

    // Schema: explicit or inferred.
    let schema: Vec<(String, DataType)> = match &opts.schema {
        Some(s) => s.clone(),
        None => names
            .iter()
            .enumerate()
            .map(|(ci, name)| (name.clone(), infer_dtype(&rows, ci)))
            .collect(),
    };
    if schema.len() != ncols {
        return Err(DfError::Parse(format!(
            "schema has {} fields but csv has {ncols} columns",
            schema.len()
        )));
    }

    let mut pairs = Vec::with_capacity(ncols);
    for (ci, (name, dtype)) in schema.iter().enumerate() {
        let scalars: Vec<Scalar> = rows
            .iter()
            .map(|r| {
                let cell = r.get(ci).map(|s| s.as_str()).unwrap_or("");
                parse_cell(cell, *dtype)
            })
            .collect();
        pairs.push((name.clone(), Column::from_scalars(&scalars, *dtype)?));
    }
    DataFrame::new(pairs)
}

/// Writes a dataframe as CSV.
pub fn write_csv<W: Write>(df: &DataFrame, writer: &mut W) -> DfResult<()> {
    let io_err = |e: std::io::Error| DfError::Parse(format!("write: {e}"));
    writeln!(writer, "{}", df.schema().names().join(",")).map_err(io_err)?;
    for i in 0..df.num_rows() {
        let row: Vec<String> = df
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(i);
                if v.is_null() {
                    String::new()
                } else {
                    v.to_string()
                }
            })
            .collect();
        writeln!(writer, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

fn split_line(line: &str, delim: u8) -> Vec<&str> {
    line.split(delim as char).collect()
}

fn infer_dtype(rows: &[Vec<String>], ci: usize) -> DataType {
    const SAMPLE: usize = 100;
    let mut any = false;
    let mut all_int = true;
    let mut all_float = true;
    let mut all_date = true;
    for r in rows.iter().take(SAMPLE) {
        let cell = r.get(ci).map(|s| s.as_str()).unwrap_or("");
        if cell.is_empty() {
            continue;
        }
        any = true;
        all_int &= cell.parse::<i64>().is_ok();
        all_float &= cell.parse::<f64>().is_ok();
        all_date &= dates::parse_iso(cell).is_some();
    }
    if !any {
        DataType::Float64 // all-null column: pandas default
    } else if all_date {
        DataType::Date
    } else if all_int {
        DataType::Int64
    } else if all_float {
        DataType::Float64
    } else {
        DataType::Utf8
    }
}

fn parse_cell(cell: &str, dtype: DataType) -> Scalar {
    if cell.is_empty() {
        return Scalar::Null;
    }
    match dtype {
        DataType::Int64 => cell.parse::<i64>().map_or(Scalar::Null, Scalar::Int),
        DataType::Float64 => cell.parse::<f64>().map_or(Scalar::Null, Scalar::Float),
        DataType::Bool => match cell {
            "true" | "True" | "1" => Scalar::Bool(true),
            "false" | "False" | "0" => Scalar::Bool(false),
            _ => Scalar::Null,
        },
        DataType::Date => dates::parse_iso(cell).map_or(Scalar::Null, Scalar::Date),
        DataType::Utf8 => Scalar::Str(cell.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let df = DataFrame::new(vec![
            ("id", Column::from_i64(vec![1, 2])),
            ("name", Column::from_str(["x", "y"])),
            ("score", Column::from_opt_f64(vec![Some(1.5), None])),
        ])
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        let back = read_csv(&buf[..], &CsvOptions::default()).unwrap();
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.column("id").unwrap().get(0), Scalar::Int(1));
        assert!(back.column("score").unwrap().get(1).is_null());
    }

    #[test]
    fn type_inference() {
        let csv = "a,b,c,d\n1,1.5,hello,1994-02-03\n2,2.5,world,1999-12-31\n";
        let df = read_csv(csv.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(df.column("a").unwrap().data_type(), DataType::Int64);
        assert_eq!(df.column("b").unwrap().data_type(), DataType::Float64);
        assert_eq!(df.column("c").unwrap().data_type(), DataType::Utf8);
        assert_eq!(df.column("d").unwrap().data_type(), DataType::Date);
    }

    #[test]
    fn explicit_schema() {
        let csv = "a\n1\n2\n";
        let opts = CsvOptions {
            schema: Some(vec![("a".to_string(), DataType::Float64)]),
            ..Default::default()
        };
        let df = read_csv(csv.as_bytes(), &opts).unwrap();
        assert_eq!(df.column("a").unwrap().data_type(), DataType::Float64);
    }

    #[test]
    fn no_header() {
        let csv = "1,x\n2,y\n";
        let opts = CsvOptions {
            has_header: false,
            ..Default::default()
        };
        let df = read_csv(csv.as_bytes(), &opts).unwrap();
        assert_eq!(df.schema().names(), vec!["c0", "c1"]);
        assert_eq!(df.num_rows(), 2);
    }

    #[test]
    fn missing_cells_are_null() {
        let csv = "a,b\n1,\n,2\n";
        let df = read_csv(csv.as_bytes(), &CsvOptions::default()).unwrap();
        assert!(df.column("b").unwrap().get(0).is_null());
        assert!(df.column("a").unwrap().get(1).is_null());
    }
}
