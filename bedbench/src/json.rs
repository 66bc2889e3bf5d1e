//! A small JSON reader for `/query` answers and `BENCHMARK.json`.
//!
//! Numbers are kept as `f64`: the server prints floats in their shortest
//! round-trip form and every id and timestamp it prints is below 2^53, so
//! parsing loses nothing and answers compare exactly.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A number field, or an error naming the missing key.
    pub fn field(&self, key: &str) -> Result<f64, String> {
        self.get(key).and_then(Json::num).ok_or_else(|| format!("missing number '{key}'"))
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { b: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > 16 {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        fields.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) => self.word(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.b.get(self.pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?);
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.pos + 1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            let hex =
                                self.b.get(self.pos..self.pos + 4).ok_or("short \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => other as char,
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn word(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, b'-' | b'+' | b'.'))
        {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?;
        match word {
            "null" => Ok(Json::Null),
            "true" => Ok(Json::Bool(true)),
            "false" => Ok(Json::Bool(false)),
            _ => word
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad token '{word}' at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_answer() {
        let v = parse(
            r#"{"kind":"point","epoch":{"generation":3,"arrivals":1024,"last_ts":null},"burstiness":-0.5,"samples":[[1,2.5e3]],"s":"a\"b"}"#,
        )
        .unwrap();
        assert_eq!(v.get("kind").and_then(Json::str), Some("point"));
        assert_eq!(v.get("epoch").unwrap().field("arrivals"), Ok(1024.0));
        assert_eq!(v.get("epoch").unwrap().get("last_ts"), Some(&Json::Null));
        assert_eq!(v.field("burstiness"), Ok(-0.5));
        assert_eq!(
            v.get("samples").unwrap().arr().unwrap()[0].arr().unwrap()[1],
            Json::Num(2500.0)
        );
        assert_eq!(v.get("s").and_then(Json::str), Some("a\"b"));
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,").is_err());
    }
}
