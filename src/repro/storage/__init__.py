"""Storage data-structures of the PowerDrill column-store.

This package implements Section 2.3's basic layout and the Section 3/5
optimizations the store uses:

- :mod:`repro.storage.dictionary` -- global dictionaries (sorted-array
  strings, packed numerics) with rank/value lookups.
- :mod:`repro.storage.trie` -- the 4-bit-nibble trie dictionary encoded
  into one flat byte array.
- :mod:`repro.storage.elements` -- element (chunk-id) encodings:
  constant, bitset, and 1/2/4-byte packed arrays.
- :mod:`repro.storage.chunk` -- per-chunk column storage: the
  chunk-dictionary plus elements.
- :mod:`repro.storage.bloom` -- Bloom filters guarding dictionary loads.
- :mod:`repro.storage.subdict` -- sub-dictionaries (hot values + chunk
  groups) so only relevant dictionary parts need to be resident.
- :mod:`repro.storage.cache` -- LRU, 2Q and ARC eviction policies.
"""

from repro.storage.bitset import BitSet
from repro.storage.bloom import BloomFilter
from repro.storage.cache import ArcCache, CacheStats, LruCache, TwoQCache
from repro.storage.chunk import ColumnChunk
from repro.storage.dictionary import (
    Dictionary,
    NumericDictionary,
    SortedStringDictionary,
    build_dictionary,
)
from repro.storage.elements import (
    BitsetElements,
    ConstantElements,
    Elements,
    PackedElements,
    encode_elements,
)
from repro.storage.subdict import SubDictionarySet
from repro.storage.trie import TrieDictionary

__all__ = [
    "ArcCache",
    "BitSet",
    "BitsetElements",
    "BloomFilter",
    "CacheStats",
    "ColumnChunk",
    "ConstantElements",
    "Dictionary",
    "Elements",
    "LruCache",
    "NumericDictionary",
    "PackedElements",
    "SortedStringDictionary",
    "SubDictionarySet",
    "TrieDictionary",
    "TwoQCache",
    "build_dictionary",
    "encode_elements",
]
