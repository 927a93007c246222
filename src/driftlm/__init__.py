"""Desk-scale lab for drifting-objective refinement of discrete diffusion LMs."""
