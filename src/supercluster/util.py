"""Empty layer module.

It held the process pool, which nothing in the engine uses any more.  The
module stays because perfbench's tracer looks up every layer module by name.
"""
