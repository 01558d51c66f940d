"""Tangible pointer tracking toolkit: import each public name from its module."""
