//! The output oracle: reference answers from the paper's sequential,
//! unplanned evaluator, and the check every response must pass.

use crate::workload::{Expect, Op};
use std::collections::HashMap;
use wdpt_model::{Database, Interner, Mapping};
use wdpt_obs::Json;
use wdpt_serve::protocol::row_line;
use wdpt_sparql::parse_query;

/// The reference answers of one query.
#[derive(Debug)]
pub struct Oracle {
    /// `|p(D)|`.
    pub answers: usize,
    /// Each answer's `row` line as the server renders it, to its index.
    rows: HashMap<String, u32>,
}

/// The `row` bindings of an answer: `(variable, constant)` names.
pub fn bindings(m: &Mapping, i: &Interner) -> Vec<(String, String)> {
    m.iter()
        .map(|(v, c)| (i.var_name(v).to_string(), i.const_name(c).to_string()))
        .collect()
}

impl Oracle {
    /// Evaluates `text` with `wdpt_core::evaluate` over `db`. `i` is a
    /// scratch copy of the database's interner; the query's symbols are
    /// interned into it.
    pub fn compute(i: &mut Interner, db: &Database, text: &str) -> Result<Oracle, String> {
        let q = parse_query(i, text).map_err(|e| format!("{text}: {}", e.message))?;
        let wdpt = q.to_wdpt(i).map_err(|e| format!("{text}: {e}"))?;
        let answers = wdpt_core::evaluate(&wdpt, db);
        let rows = answers
            .iter()
            .enumerate()
            .map(|(k, m)| (row_line(None, bindings(m, i)).to_string(), k as u32))
            .collect();
        Ok(Oracle {
            answers: answers.len(),
            rows,
        })
    }

    /// The index of the answer a `row` line carries, by exact text or,
    /// failing that, by its parsed bindings.
    fn row_index(&self, line: &str, parsed: Option<&Json>) -> Option<u32> {
        if let Some(&k) = self.rows.get(line) {
            return Some(k);
        }
        let Json::Obj(b) = parsed?.get("bindings")? else {
            return None;
        };
        let pairs: Option<Vec<(String, String)>> = b
            .iter()
            .map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
            .collect();
        self.rows.get(&row_line(None, pairs?).to_string()).copied()
    }
}

/// What a response must be.
#[derive(Debug, Clone, Copy)]
pub enum Expected<'a> {
    Answers(&'a Oracle),
    Error(&'a str),
    Reload,
}

impl<'a> Expected<'a> {
    /// What the response to `op` must be; `oracles` holds every valid
    /// query of the stream.
    pub fn of(op: &Op, oracles: &'a HashMap<String, Oracle>) -> Expected<'a> {
        match op {
            Op::Query {
                text,
                expect: Expect::Answers,
            } => Expected::Answers(&oracles[text.as_str()]),
            Op::Query {
                expect: Expect::Error(kind),
                ..
            } => Expected::Error(kind),
            Op::Reload { .. } => Expected::Reload,
        }
    }

    pub fn oracle(self) -> Option<&'a Oracle> {
        match self {
            Expected::Answers(o) => Some(o),
            _ => None,
        }
    }
}

/// Checks a whole response given as lines.
pub fn check_lines<'l>(
    lines: impl IntoIterator<Item = &'l str>,
    expected: Expected,
    max_rows: usize,
) -> Result<(), String> {
    let mut resp = Response::default();
    for line in lines {
        if let Some(t) = resp.feed(line, expected.oracle())? {
            return resp.judge(expected, &t, max_rows);
        }
    }
    Err("response has no terminal line".into())
}

/// One response, accumulated line by line.
#[derive(Debug, Default)]
pub struct Response {
    /// Oracle indices of the streamed rows.
    seen: Vec<u32>,
    /// Streamed rows that are not oracle answers.
    foreign: usize,
    first_foreign: Option<String>,
    /// Bytes of every line, newlines included.
    pub bytes: usize,
}

impl Response {
    pub fn clear(&mut self) {
        self.seen.clear();
        self.foreign = 0;
        self.first_foreign = None;
        self.bytes = 0;
    }

    /// Feeds one line (newline stripped). Returns the parsed terminal
    /// line when this line ends the response.
    pub fn feed(&mut self, line: &str, oracle: Option<&Oracle>) -> Result<Option<Json>, String> {
        self.bytes += line.len() + 1;
        if let Some(k) = oracle.and_then(|o| o.rows.get(line)) {
            self.seen.push(*k);
            return Ok(None);
        }
        let v = Json::parse(line).map_err(|e| format!("unparsable response line {line:?}: {e}"))?;
        if v.get("kind").and_then(Json::as_str) != Some("row") {
            return Ok(Some(v));
        }
        match oracle.and_then(|o| o.row_index(line, Some(&v))) {
            Some(k) => self.seen.push(k),
            None => {
                self.foreign += 1;
                self.first_foreign.get_or_insert_with(|| line.to_string());
            }
        }
        Ok(None)
    }

    /// Checks the finished response against `expected`: the answer count
    /// equals the oracle's, every streamed row is a distinct oracle
    /// answer, and `rows` = min(answers, `max_rows`); or the typed error
    /// kind; or a reload acknowledgement.
    pub fn judge(
        &mut self,
        expected: Expected,
        terminal: &Json,
        max_rows: usize,
    ) -> Result<(), String> {
        let status = terminal.get("status").and_then(Json::as_str);
        let kind = terminal.get("kind").and_then(Json::as_str);
        let num = |k: &str| terminal.get(k).and_then(Json::as_num).map(|n| n as usize);
        match expected {
            Expected::Answers(o) => {
                if status != Some("ok") {
                    return Err(format!("expected answers, got {terminal}"));
                }
                if let Some(row) = &self.first_foreign {
                    return Err(format!("{} rows are not answers, e.g. {row}", self.foreign));
                }
                let streamed = self.seen.len();
                self.seen.sort_unstable();
                self.seen.dedup();
                if self.seen.len() != streamed {
                    return Err(format!("{} duplicate rows", streamed - self.seen.len()));
                }
                let want_rows = o.answers.min(max_rows);
                if num("answers") != Some(o.answers)
                    || num("rows") != Some(want_rows)
                    || streamed != want_rows
                {
                    return Err(format!(
                        "expected {} answers in {want_rows} rows, streamed {streamed}: {terminal}",
                        o.answers
                    ));
                }
                Ok(())
            }
            Expected::Error(want) => {
                let no_rows = self.seen.is_empty() && self.foreign == 0;
                if status == Some("error") && kind == Some(want) && no_rows {
                    Ok(())
                } else {
                    Err(format!("expected error kind {want}, got {terminal}"))
                }
            }
            Expected::Reload => {
                if status == Some("ok") && kind == Some("reload") {
                    Ok(())
                } else {
                    Err(format!("expected a reload acknowledgement, got {terminal}"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_sparql::TripleStore;

    fn catalog() -> (Interner, Database) {
        let mut i = Interner::new();
        let mut ts = TripleStore::new();
        for (s, p, o) in [
            ("r1", "rec_by", "b1"),
            ("r2", "rec_by", "b1"),
            ("r3", "rec_by", "b2"),
            ("r1", "nme_rating", "7"),
        ] {
            ts.insert_str(&mut i, s, p, o);
        }
        (i, ts.into_database())
    }

    const QUERY: &str = "SELECT ?x ?y ?z WHERE { ((?x, rec_by, ?y) OPT (?x, nme_rating, ?z)) }";

    /// The response lines a correct server sends for `o`, rows first.
    fn respond(i: &mut Interner, db: &Database) -> Vec<String> {
        let q = parse_query(i, QUERY).unwrap();
        let answers = wdpt_core::evaluate(&q.to_wdpt(i).unwrap(), db);
        let mut lines: Vec<String> = answers
            .iter()
            .map(|m| row_line(None, bindings(m, i)).to_string())
            .collect();
        lines.push(
            wdpt_serve::protocol::ok_line(None, answers.len(), answers.len(), "hit", 1, None, None)
                .to_string(),
        );
        lines
    }

    fn judge(o: &Oracle, lines: &[String], max_rows: usize) -> Result<(), String> {
        check_lines(
            lines.iter().map(String::as_str),
            Expected::Answers(o),
            max_rows,
        )
    }

    #[test]
    fn accepts_a_correct_response_and_rejects_one_altered_binding() {
        let (mut i, db) = catalog();
        let o = Oracle::compute(&mut i.clone(), &db, QUERY).unwrap();
        assert_eq!(o.answers, 3);
        let lines = respond(&mut i, &db);
        assert_eq!(judge(&o, &lines, 1000), Ok(()));

        let mut altered = lines.clone();
        altered[0] = altered[0].replacen("\"b1\"", "\"b2\"", 1);
        assert_ne!(altered[0], lines[0], "the test must alter a binding");
        assert!(judge(&o, &altered, 1000).is_err());
    }

    #[test]
    fn rejects_wrong_counts_duplicates_and_untruncated_rows() {
        let (mut i, db) = catalog();
        let o = Oracle::compute(&mut i.clone(), &db, QUERY).unwrap();
        let lines = respond(&mut i, &db);
        // A duplicated row in place of another.
        let mut dup = lines.clone();
        dup[1] = dup[0].clone();
        assert!(judge(&o, &dup, 1000).is_err());
        // max_rows = 2 expects exactly two rows.
        assert!(judge(&o, &lines, 2).is_err());
        // Rows in a different key order still match by their bindings.
        let v = Json::parse(&lines[0]).unwrap();
        let reordered = format!(
            "{{\"kind\":\"row\",\"bindings\":{}}}",
            v.get("bindings").unwrap()
        );
        let mut r = Response::default();
        assert_eq!(r.feed(&reordered, Some(&o)), Ok(None));
        assert_eq!(r.seen.len(), 1);
    }

    #[test]
    fn checks_error_kinds_and_reloads() {
        let err = wdpt_serve::protocol::error_line(None, "parse_error", "expected ','", Some(3));
        let mut r = Response::default();
        let t = r.feed(&err.to_string(), None).unwrap().unwrap();
        assert!(r.judge(Expected::Error("parse_error"), &t, 1000).is_ok());
        assert!(r
            .judge(Expected::Error("not_well_designed"), &t, 1000)
            .is_err());
        assert!(r.judge(Expected::Reload, &t, 1000).is_err());
    }
}
