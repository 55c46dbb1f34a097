//! Column names as the logical optimizer reasons about them.
//!
//! One pass over a fetch's closure meets the same few dozen names again
//! and again: in every operator's parameters, in every required set and
//! in every output list. A [`NameTable`] interns each once as a small id,
//! borrowing it from the closure's operators, so the passes compare, copy
//! and collect ids, and a name is a string again only where a rewritten
//! operator holds one.

use std::borrow::Cow;
use std::rc::Rc;
use xorbits_dataframe::hash::FxHashMap;

/// A tileable's output column names as ids, in order: one list, handed on
/// unchanged by every operator that keeps its input's columns.
pub type Names = Rc<[u32]>;

/// The column names one pass meets, each interned once as an id: a name
/// an operator of the closure `'g` holds is borrowed, and only a name the
/// pass makes (a suffixed one) is owned.
#[derive(Debug)]
pub struct NameTable<'g> {
    ids: FxHashMap<Cow<'g, str>, u32>,
    names: Vec<Cow<'g, str>>,
}

impl Default for NameTable<'_> {
    /// A table sized for a query's few dozen names, so that it does not
    /// grow (and rehash) while a pass fills it.
    fn default() -> Self {
        const NAMES: usize = 64;
        NameTable {
            ids: FxHashMap::with_capacity_and_hasher(NAMES, Default::default()),
            names: Vec::with_capacity(NAMES),
        }
    }
}

impl<'g> NameTable<'g> {
    /// The id of `name`, interning it on first sight.
    pub fn id(&mut self, name: impl Into<Cow<'g, str>>) -> u32 {
        let name = name.into();
        if let Some(&id) = self.ids.get(name.as_ref()) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.clone());
        self.ids.insert(name, id);
        id
    }

    /// The name of an id this table handed out.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The ids of `names`, in order.
    pub fn ids(&mut self, names: impl IntoIterator<Item = &'g String>) -> Names {
        names.into_iter().map(|name| self.id(name)).collect()
    }
}
