//! Shared, interned page storage.
//!
//! Every stage of the pipeline — synthesis examples, the transductive
//! ensemble, answer extraction — reads pages. The [`PageStore`]
//! parses/interns a page once and hands out cheap [`PageId`] handles
//! backed by `Arc<PageTree>`, so concurrent batch tasks and repeated
//! interactive-labeling rounds share one copy of every [`PageTree`].
//!
//! Insertion is content-addressed: inserting the same HTML (or a
//! structurally identical tree) twice returns the *same* `PageId` and the
//! same `Arc`. Two different HTML sources that parse to identical trees
//! also intern to one page — the pipeline only ever observes the tree.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::error::Error;
use webqa_dsl::PageTree;

/// Issues a distinct token to every independently-created store, so a
/// handle can prove which store issued it. Clones of a store keep its
/// token — their ids are interchangeable by construction (see
/// [`crate::Engine::with_store`]).
static NEXT_STORE_TOKEN: AtomicU32 = AtomicU32::new(1);

/// Handle to an interned page in a [`PageStore`].
///
/// An id carries the issuing store's token and the page's content digest
/// alongside its dense index, so resolving it against an unrelated store
/// — or against a clone that diverged and interned a *different* page at
/// the same index — yields [`Error::UnknownPage`] instead of silently
/// reading the wrong page. Ids are interchangeable between a store and
/// its clones wherever the named page actually exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Token of the issuing store (`0` is never issued — tests use it to
    /// forge foreign ids).
    pub(crate) store: u32,
    /// Dense index within the issuing store.
    pub(crate) index: u32,
    /// Content digest of the named page; checked on resolution.
    pub(crate) digest: u64,
}

impl PageId {
    /// The raw index of this page within its store.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The content digest of the page this id names — the same value
    /// [`content_digest`] computes for the page's tree. A pure function
    /// of page *content*: two ids for structurally identical pages carry
    /// equal digests even across unrelated stores, which is what lets a
    /// front end (e.g. `webqa_server`'s shard router) partition pages
    /// deterministically without consulting any store.
    pub fn digest(self) -> u64 {
        self.digest
    }

    /// An id no store ever issued (token `0`), for exercising the
    /// foreign-handle error paths.
    #[cfg(test)]
    pub(crate) fn forged(index: u32) -> PageId {
        PageId {
            store: 0,
            index,
            digest: 0,
        }
    }
}

/// Interned storage of parsed pages. See the module docs.
#[derive(Debug, Clone)]
pub struct PageStore {
    /// This store's identity; embedded in every id it issues.
    token: u32,
    pages: Vec<Arc<PageTree>>,
    /// Content digest of each page, aligned with `pages`; checked when a
    /// handle is resolved.
    digests: Vec<u64>,
    /// Content digest → candidate ids (collision list).
    by_digest: HashMap<u64, Vec<PageId>>,
}

impl Default for PageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore {
    /// An empty store (with a fresh identity — ids from other stores do
    /// not resolve against it).
    pub fn new() -> Self {
        PageStore {
            token: NEXT_STORE_TOKEN.fetch_add(1, Ordering::Relaxed),
            pages: Vec::new(),
            digests: Vec::new(),
            by_digest: HashMap::new(),
        }
    }

    /// Number of distinct pages interned.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Parses HTML through the fallible path ([`PageTree::try_parse`])
    /// and interns the result.
    ///
    /// # Errors
    ///
    /// [`Error::Html`] when the HTML is damaged (runaway unclosed-tag
    /// nesting, undecodable character references).
    pub fn insert_html(&mut self, html: &str) -> Result<PageId, Error> {
        Ok(self.insert_tree(PageTree::try_parse(html)?))
    }

    /// Parses HTML leniently ([`PageTree::parse`], never fails) and
    /// interns the result. For trusted or already-vetted sources.
    pub fn insert_html_lenient(&mut self, html: &str) -> PageId {
        self.insert_tree(PageTree::parse(html))
    }

    /// Interns an already-parsed tree, deduplicating against every page
    /// inserted so far: a structurally identical tree returns the
    /// existing [`PageId`] and the tree is dropped.
    pub fn insert_tree(&mut self, tree: PageTree) -> PageId {
        self.insert_shared(Arc::new(tree))
    }

    /// Interns a tree that is already behind an `Arc` (shares the handle
    /// instead of re-wrapping when the tree is new to the store).
    pub fn insert_shared(&mut self, tree: Arc<PageTree>) -> PageId {
        let digest = content_digest(&tree);
        let bucket = self.by_digest.entry(digest).or_default();
        for &id in bucket.iter() {
            if self.pages[id.index()] == tree {
                return id;
            }
        }
        let id = PageId {
            store: self.token,
            index: u32::try_from(self.pages.len()).expect("under 2^32 pages"),
            digest,
        };
        self.pages.push(tree);
        self.digests.push(digest);
        bucket.push(id);
        id
    }

    /// Resolves a handle to its shared tree.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownPage`] when `id` was not issued by this store (or
    /// by a clone that still agrees with it about the named page — a
    /// clone that diverged and interned a different page at the same
    /// index fails the digest check instead of resolving wrongly).
    pub fn get(&self, id: PageId) -> Result<&Arc<PageTree>, Error> {
        if id.store != self.token {
            return Err(Error::UnknownPage(id));
        }
        let tree = self.pages.get(id.index()).ok_or(Error::UnknownPage(id))?;
        if self.digests[id.index()] != id.digest {
            return Err(Error::UnknownPage(id));
        }
        Ok(tree)
    }

    /// The shared trees of every interned page, in insertion order.
    pub fn pages(&self) -> &[Arc<PageTree>] {
        &self.pages
    }

    /// The handle of the page at dense index `index`, if one is interned
    /// there — how a front end holding raw indices (e.g. `webqa_server`'s
    /// wire-level page handles) recovers full, digest-checked [`PageId`]s.
    pub fn id_at(&self, index: usize) -> Option<PageId> {
        let digest = *self.digests.get(index)?;
        Some(PageId {
            store: self.token,
            index: u32::try_from(index).ok()?,
            digest,
        })
    }

    /// The handle of an already-interned tree, without inserting — the
    /// read-only half of [`PageStore::insert_shared`]'s dedup. Lets a
    /// caller that only holds a shared reference (e.g. a server resolving
    /// a request under a read lock) discover whether a page is resident
    /// before committing to a write lock.
    pub fn lookup(&self, tree: &PageTree) -> Option<PageId> {
        let bucket = self.by_digest.get(&content_digest(tree))?;
        bucket
            .iter()
            .copied()
            .find(|&id| *self.pages[id.index()] == *tree)
    }
}

/// Content digest of a page tree — the value embedded in every
/// [`PageId`] and the key of the store's content-addressed dedup. A pure
/// function of tree structure: structurally identical pages digest
/// equally whatever bytes they were parsed from. Not a stable on-disk
/// format — in-process addressing (interning, shard routing) only.
pub fn content_digest(tree: &PageTree) -> u64 {
    let mut h = DefaultHasher::new();
    tree.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_html_interns_to_same_id_and_arc() {
        let mut store = PageStore::new();
        let html = "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>";
        let a = store.insert_html(html).unwrap();
        let b = store.insert_html(html).unwrap();
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        let (pa, pb) = (store.get(a).unwrap(), store.get(b).unwrap());
        assert!(Arc::ptr_eq(pa, pb));
    }

    #[test]
    fn distinct_pages_get_distinct_ids() {
        let mut store = PageStore::new();
        let a = store.insert_html("<h1>A</h1>").unwrap();
        let b = store.insert_html("<h1>B</h1>").unwrap();
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.get(a).unwrap().text(store.get(a).unwrap().root()),
            "A"
        );
    }

    #[test]
    fn structurally_identical_sources_share_a_page() {
        // Different byte strings, same tree after lenient whitespace
        // normalization.
        let mut store = PageStore::new();
        let a = store.insert_html("<h1>A</h1><p>x</p>").unwrap();
        let b = store.insert_html("<h1>A</h1>\n  <p>x</p>\n").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn damaged_html_is_rejected_not_interned() {
        let mut store = PageStore::new();
        let err = store.insert_html("<p>50&bogus;mg</p>").unwrap_err();
        assert!(matches!(err, Error::Html(_)));
        assert!(store.is_empty());
        // The lenient path still accepts it.
        let id = store.insert_html_lenient("<p>50&bogus;mg</p>");
        assert_eq!(store.get(id).unwrap().len(), 2);
    }

    #[test]
    fn in_range_id_from_another_store_is_rejected() {
        let mut a = PageStore::new();
        let mut b = PageStore::new();
        let id_a = a.insert_html("<h1>A</h1>").unwrap();
        let id_b = b.insert_html("<h1>B</h1>").unwrap();
        // Same dense index, different stores: resolving across must fail
        // rather than silently returning the other store's page.
        assert_eq!(id_a.index(), id_b.index());
        assert_eq!(b.get(id_a).unwrap_err(), Error::UnknownPage(id_a));
        assert_eq!(a.get(id_b).unwrap_err(), Error::UnknownPage(id_b));
        // A clone shares identity: its ids remain valid both ways.
        let c = a.clone();
        assert!(c.get(id_a).is_ok());
    }

    #[test]
    fn diverged_clones_reject_each_others_new_ids() {
        let mut base = PageStore::new();
        let shared = base.insert_html("<h1>Shared</h1>").unwrap();
        let (mut a, mut b) = (base.clone(), base.clone());
        let id_x = a.insert_html("<h1>X</h1>").unwrap();
        let id_y = b.insert_html("<h1>Y</h1>").unwrap();
        // Same token, same index, different page: the digest check must
        // refuse cross-resolution rather than hand back the wrong tree.
        assert_eq!(id_x.index(), id_y.index());
        assert_eq!(b.get(id_x).unwrap_err(), Error::UnknownPage(id_x));
        assert_eq!(a.get(id_y).unwrap_err(), Error::UnknownPage(id_y));
        // Pre-fork ids stay valid everywhere.
        assert!(a.get(shared).is_ok());
        assert!(b.get(shared).is_ok());
    }

    #[test]
    fn foreign_ids_are_unknown() {
        let store = PageStore::new();
        assert_eq!(
            store.get(PageId::forged(3)).unwrap_err(),
            Error::UnknownPage(PageId::forged(3))
        );
    }

    #[test]
    fn lookup_finds_resident_pages_without_inserting() {
        let mut store = PageStore::new();
        let id = store.insert_html("<h1>A</h1>").unwrap();
        let same = PageTree::parse("<h1>A</h1>");
        let other = PageTree::parse("<h1>B</h1>");
        assert_eq!(store.lookup(&same), Some(id));
        assert_eq!(store.lookup(&other), None);
        assert_eq!(store.len(), 1, "lookup never inserts");
        // The digest a lookup routes by is the one the id carries.
        assert_eq!(id.digest(), content_digest(&same));
    }

    #[test]
    fn insert_shared_reuses_the_handle() {
        let mut store = PageStore::new();
        let tree = Arc::new(PageTree::parse("<h1>A</h1>"));
        let id = store.insert_shared(Arc::clone(&tree));
        assert!(Arc::ptr_eq(store.get(id).unwrap(), &tree));
        // Interning an equal owned tree dedups onto the same id.
        assert_eq!(store.insert_tree(PageTree::parse("<h1>A</h1>")), id);
    }
}
