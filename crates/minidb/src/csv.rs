//! CSV import and export.
//!
//! The demo's meal-planner dataset was "scrapped from online recipe and
//! nutrition websites"; this reproduction generates synthetic data instead
//! (see the `datagen` crate), but the CSV reader lets users load their own
//! relations, and the writer makes benchmark inputs inspectable.

use std::io::{BufRead, Write};

use crate::error::DbError;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::DbResult;

/// Parses a single CSV line, honouring double-quoted fields with embedded
/// commas and doubled quotes.
fn parse_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

fn escape_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn parse_value(raw: &str, ty: ColumnType) -> DbResult<Value> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    match ty {
        ColumnType::Bool => trimmed
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|_| DbError::CsvError(format!("cannot parse '{trimmed}' as BOOL"))),
        ColumnType::Int => trimmed
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| DbError::CsvError(format!("cannot parse '{trimmed}' as INT"))),
        ColumnType::Float => trimmed
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DbError::CsvError(format!("cannot parse '{trimmed}' as FLOAT"))),
        ColumnType::Text => Ok(Value::Text(trimmed.to_string())),
    }
}

/// Infers a column type from sample (string) values: INT ⊂ FLOAT ⊂ TEXT,
/// BOOL only when every non-empty value is `true`/`false`.
fn infer_type(samples: &[&str]) -> ColumnType {
    let mut non_empty = 0usize;
    let (mut ints, mut floats, mut bools) = (0usize, 0usize, 0usize);
    for s in samples {
        let t = s.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("null") {
            continue;
        }
        non_empty += 1;
        if t.parse::<i64>().is_ok() {
            ints += 1;
        }
        if t.parse::<f64>().is_ok() {
            floats += 1;
        }
        if t.parse::<bool>().is_ok() {
            bools += 1;
        }
    }
    if non_empty == 0 {
        ColumnType::Text
    } else if bools == non_empty {
        ColumnType::Bool
    } else if ints == non_empty {
        ColumnType::Int
    } else if floats == non_empty {
        ColumnType::Float
    } else {
        ColumnType::Text
    }
}

/// Reads a table from CSV text with a header row, inferring column types.
pub fn read_table(name: &str, reader: impl BufRead) -> DbResult<Table> {
    let mut lines = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| DbError::CsvError(e.to_string()))?;
        if !line.trim().is_empty() {
            lines.push(line);
        }
    }
    if lines.is_empty() {
        return Err(DbError::CsvError("empty CSV input (missing header)".into()));
    }
    let header = parse_line(&lines[0]);
    let records: Vec<Vec<String>> = lines[1..].iter().map(|l| parse_line(l)).collect();
    for (i, r) in records.iter().enumerate() {
        if r.len() != header.len() {
            return Err(DbError::CsvError(format!(
                "row {} has {} fields, header has {}",
                i + 1,
                r.len(),
                header.len()
            )));
        }
    }
    let columns: Vec<Column> = header
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let samples: Vec<&str> = records.iter().map(|r| r[i].as_str()).collect();
            Column::new(name.trim(), infer_type(&samples))
        })
        .collect();
    let schema = Schema::new(columns)?;
    let mut table = Table::new(name, schema.clone());
    for record in &records {
        let values: Vec<Value> = record
            .iter()
            .zip(schema.columns())
            .map(|(raw, col)| parse_value(raw, col.ty))
            .collect::<DbResult<_>>()?;
        table.insert(Tuple::new(values))?;
    }
    Ok(table)
}

/// Reads a table from a CSV string.
pub fn read_table_str(name: &str, csv: &str) -> DbResult<Table> {
    read_table(name, csv.as_bytes())
}

/// Writes a table as CSV (header + rows).
pub fn write_table(table: &Table, mut writer: impl Write) -> DbResult<()> {
    let header: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| escape_field(&c.name))
        .collect();
    writeln!(writer, "{}", header.join(",")).map_err(|e| DbError::CsvError(e.to_string()))?;
    for row in table.rows() {
        let fields: Vec<String> = row
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Text(s) => escape_field(s),
                other => other.to_string(),
            })
            .collect();
        writeln!(writer, "{}", fields.join(",")).map_err(|e| DbError::CsvError(e.to_string()))?;
    }
    Ok(())
}

/// Serializes a table to a CSV string.
pub fn write_table_string(table: &Table) -> DbResult<String> {
    let mut buf = Vec::new();
    write_table(table, &mut buf)?;
    String::from_utf8(buf).map_err(|e| DbError::CsvError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;

    const SAMPLE: &str = "\
name,calories,protein,gluten,organic
oatmeal,320,12.5,free,true
\"pasta, fresh\",640,20,full,false
salad,210,6.5,free,true
";

    #[test]
    fn read_infers_types() {
        let t = read_table_str("recipes", SAMPLE).unwrap();
        assert_eq!(t.len(), 3);
        let s = t.schema();
        assert_eq!(s.column("calories").unwrap().ty, ColumnType::Int);
        assert_eq!(s.column("protein").unwrap().ty, ColumnType::Float);
        assert_eq!(s.column("gluten").unwrap().ty, ColumnType::Text);
        assert_eq!(s.column("organic").unwrap().ty, ColumnType::Bool);
    }

    #[test]
    fn quoted_fields_preserve_commas() {
        let t = read_table_str("recipes", SAMPLE).unwrap();
        assert_eq!(
            t.get(TupleId(1)).unwrap().get(0),
            Some(Value::Text("pasta, fresh".into()))
        );
    }

    #[test]
    fn roundtrip_write_then_read() {
        let t = read_table_str("recipes", SAMPLE).unwrap();
        let csv = write_table_string(&t).unwrap();
        let t2 = read_table_str("recipes", &csv).unwrap();
        let rows = |t: &Table| t.rows().map(|r| r.to_tuple()).collect::<Vec<_>>();
        assert_eq!(rows(&t), rows(&t2));
    }

    #[test]
    fn empty_and_ragged_inputs_error() {
        assert!(read_table_str("t", "").is_err());
        assert!(read_table_str("t", "a,b\n1\n").is_err());
        assert!(read_table_str("t", "a\nnot_an_int_but_inferred_text\n").is_ok());
    }

    #[test]
    fn nulls_roundtrip_as_empty_fields() {
        let t = read_table_str("t", "a,b\n1,\n2,x\n").unwrap();
        assert!(t.get(TupleId(0)).unwrap().get(1).unwrap().is_null());
        let csv = write_table_string(&t).unwrap();
        assert!(csv.contains("1,\n"));
    }

    #[test]
    fn parse_line_handles_escaped_quotes() {
        assert_eq!(parse_line("a,\"b\"\"c\",d"), vec!["a", "b\"c", "d"]);
    }
}
