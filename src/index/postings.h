/**
 * @file
 * The posting: one (document, frequency) occurrence of a term.
 *
 * Postings carry shard-local document indices (dense, 0-based within
 * the shard) so evaluators can index the shard's length table directly;
 * the shard maps local indices back to global DocIds when emitting
 * results. The index stores them only StreamVByte-compressed
 * (block_max.h); a flat Posting sequence exists only while a list is
 * built and when a list is decoded whole for an index-time scan.
 */

#ifndef COTTAGE_INDEX_POSTINGS_H
#define COTTAGE_INDEX_POSTINGS_H

#include <cstdint>

namespace cottage {

/** Shard-local document index. */
using LocalDocId = uint32_t;

/** One document occurrence of a term. */
struct Posting
{
    LocalDocId doc;
    uint32_t freq;
};

} // namespace cottage

#endif // COTTAGE_INDEX_POSTINGS_H
