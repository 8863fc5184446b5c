"""blendrank: a two-stage retrieval cascade.

Stage one retrieves candidates with a k-means IVF index over dense
document vectors; stage two re-ranks them with a LambdaMART forest trained
on a blended feature vector (dense query/document/delta blocks, cosine,
cosine rank, and hand-crafted lexical features), scored by a flat
exit-leaf scorer over the compiled forest.
"""

__version__ = "0.1.0"
