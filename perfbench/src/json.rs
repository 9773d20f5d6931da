//! Reading and writing JSON through the workspace's serde shim.

use serde::{Deserialize, Serialize, Value};

/// Any JSON value, parsed without a schema.
pub struct Raw(pub Value);

impl Deserialize for Raw {
    fn deserialize(value: &Value) -> Result<Self, serde::de::Error> {
        Ok(Raw(value.clone()))
    }
}

impl Serialize for Raw {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Raw>(text)
        .map(|raw| raw.0)
        .map_err(|e| e.to_string())
}

pub fn render(value: Value) -> String {
    serde_json::to_string(&Raw(value)).expect("the shim renders every value")
}

pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn num(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(x) => Some(x),
        Value::I64(x) => Some(x as f64),
        Value::U64(x) => Some(x as f64),
        _ => None,
    }
}

pub fn str_field<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    get(value, key)?.as_str()
}

pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}
