# The rank-2 character calculus lives in ``oracles``. perfbench/tracer.py
# wraps these two names by this module path, so this alias stays until
# the benchmark retargets them; delete it then (ROADMAP items 7 and 11).
from .oracles import gl2_tensor, wedge_power_gl2
